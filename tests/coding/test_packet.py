"""Tests for packet/batch abstractions and file splitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import (
    Batch,
    CodedPacket,
    make_batch,
    split_file,
)

#: K and S of the split edge cases, and the file lengths around them: one
#: byte, one byte short of a packet, one packet, one byte over, one batch,
#: one byte over.
K, S = 4, 64
EDGE_LENGTHS = [1, S - 1, S, S + 1, K * S, K * S + 1]


def split_per_packet(data: bytes, batch_size: int, packet_size: int) -> list[np.ndarray]:
    """The per-packet split ``split_file`` replaced, as the oracle: each
    batch's natives cut one at a time and the last one zero-padded."""
    buffer = np.frombuffer(data, dtype=np.uint8)
    total_packets = int(np.ceil(buffer.size / packet_size))
    batches = []
    for start in range(0, total_packets, batch_size):
        natives = []
        for index in range(start, min(start + batch_size, total_packets)):
            chunk = buffer[index * packet_size : (index + 1) * packet_size]
            padded = np.zeros(packet_size, dtype=np.uint8)
            padded[: chunk.size] = chunk
            natives.append(padded)
        batches.append(np.stack(natives))
    return batches


def _edge_cases(first: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """``(length, K, S)``: a test's own case, then the edge lengths."""
    return [first] + [(length, K, S) for length in EDGE_LENGTHS]


class TestCodedPacket:
    def test_basic_properties(self):
        packet = CodedPacket(code_vector=bytes([1, 0, 2]), payload=b"abcd", batch_id=3)
        assert packet.batch_size == 3
        assert packet.size == 4
        assert packet.batch_id == 3

    def test_accepts_bytes_and_arrays(self):
        from_bytes = CodedPacket(bytes([1]), b"\x01\x02\x03")
        from_array = CodedPacket(bytes([1]), np.array([1, 2, 3], dtype=np.uint8))
        assert np.array_equal(from_bytes.payload, from_array.payload)
        assert from_bytes.payload.tobytes() == b"\x01\x02\x03"

    def test_payload_is_copied(self):
        data = np.array([1, 2, 3], dtype=np.uint8)
        packet = CodedPacket(bytes([1]), data)
        data[0] = 99
        assert packet.payload[0] == 1

    def test_rejects_non_1d_payload(self):
        with pytest.raises(ValueError):
            CodedPacket(bytes([1]), np.zeros((2, 2), dtype=np.uint8))

    def test_zero_vector_detection(self):
        """A zero code vector carries nothing: a buffer counts it received,
        never innovative, whatever its payload bytes."""
        packet = CodedPacket(code_vector=bytes(4), payload=b"1234")
        buffer = BatchBuffer(4, 4)
        assert not buffer.is_innovative(packet.code_vector)
        assert buffer.add(packet) is False
        assert (buffer.rank, buffer.received, buffer.innovative) == (0, 1, 0)

    def test_copy_is_independent(self):
        packet = CodedPacket(code_vector=bytes([1, 2]), payload=b"xy")
        clone = packet.copy()
        clone.payload[0] = 9
        assert packet.payload[0] == ord("x")
        # The code vector is immutable bytes, shared as it is.
        assert clone.code_vector == packet.code_vector == bytes([1, 2])

    def test_compares_and_hashes_by_identity(self):
        packet = CodedPacket(code_vector=bytes([1, 2]), payload=b"xy")
        assert packet == packet and packet != packet.copy()
        assert len({packet, packet.copy(), packet}) == 2


class TestBatch:
    def test_payloads_shape(self, rng):
        batch = make_batch(batch_size=4, packet_size=10, rng=rng)
        assert batch.payloads.shape == (4, 10)
        assert batch.payloads.dtype == np.uint8
        assert batch.size == 4
        assert batch.packet_size == 10

    def test_empty_batch(self):
        batch = Batch(0, np.zeros((0, 5), dtype=np.uint8))
        assert batch.size == 0
        assert batch.packet_size == 5


class TestSplitFile:
    def test_exact_multiple(self):
        data = bytes(range(256)) * 6  # 1536 bytes
        batches = split_file(data, batch_size=4, packet_size=128)
        assert len(batches) == 3
        assert all(batch.size == 4 for batch in batches)
        assert sum(batch.size for batch in batches) == 12

    @pytest.mark.parametrize("length, batch_size, packet_size", _edge_cases((100, 8, 64)))
    def test_padding_of_last_packet(self, length, batch_size, packet_size):
        data = b"\xaa" * length
        batches = split_file(data, batch_size=batch_size, packet_size=packet_size)
        expected = split_per_packet(data, batch_size, packet_size)
        assert [batch.payloads.tobytes() for batch in batches] == \
            [natives.tobytes() for natives in expected]
        last = batches[-1].payloads[-1]
        assert last.shape == (packet_size,) and last.dtype == np.uint8
        used = (length - 1) % packet_size + 1
        assert (last[:used] == 0xAA).all()
        assert not last[used:].any()  # zero padding

    @pytest.mark.parametrize("length, batch_size, packet_size", _edge_cases((1000, 4, 100)))
    def test_roundtrip_content(self, length, batch_size, packet_size):
        data = np.random.default_rng(0).integers(0, 256, length, dtype=np.uint8).tobytes()
        batches = split_file(data, batch_size=batch_size, packet_size=packet_size)
        joined = b"".join(batch.payloads.tobytes() for batch in batches)
        assert joined[: len(data)] == data
        assert joined == b"".join(natives.tobytes()
                                  for natives in split_per_packet(data, batch_size,
                                                                  packet_size))

    @pytest.mark.parametrize("length, batch_size, packet_size", _edge_cases((1280, 4, 128)))
    def test_last_batch_may_be_short(self, length, batch_size, packet_size):
        data = b"z" * length
        batches = split_file(data, batch_size=batch_size, packet_size=packet_size)
        assert [b.payloads.shape for b in batches] == \
            [natives.shape for natives in split_per_packet(data, batch_size, packet_size)]
        packets = -(-length // packet_size)
        assert [b.size for b in batches] == \
            [min(batch_size, packets - first) for first in range(0, packets, batch_size)]

    def test_batch_ids_are_sequential(self):
        data = b"q" * 1000
        batches = split_file(data, batch_size=2, packet_size=100)
        assert [b.batch_id for b in batches] == list(range(len(batches)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_file(b"abc", batch_size=0)
        with pytest.raises(ValueError):
            split_file(b"abc", packet_size=0)

    def test_empty_file(self):
        assert split_file(b"") == []


class TestMakeBatch:
    def test_deterministic_with_seed(self):
        a = make_batch(batch_size=3, packet_size=16, rng=np.random.default_rng(5))
        b = make_batch(batch_size=3, packet_size=16, rng=np.random.default_rng(5))
        assert np.array_equal(a.payloads, b.payloads)
