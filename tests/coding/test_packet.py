"""Tests for packet/batch abstractions and file splitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.packet import (
    Batch,
    CodedPacket,
    NativePacket,
    make_batch,
    split_file,
)


class TestNativePacket:
    def test_accepts_bytes_and_arrays(self):
        from_bytes = NativePacket(index=0, payload=b"\x01\x02\x03")
        from_array = NativePacket(index=0, payload=np.array([1, 2, 3], dtype=np.uint8))
        assert np.array_equal(from_bytes.payload, from_array.payload)
        assert from_bytes.size == 3
        assert from_bytes.to_bytes() == b"\x01\x02\x03"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            NativePacket(index=-1, payload=b"x")

    def test_payload_is_copied(self):
        data = np.array([1, 2, 3], dtype=np.uint8)
        packet = NativePacket(index=0, payload=data)
        data[0] = 99
        assert packet.payload[0] == 1

    def test_rejects_non_1d_payload(self):
        with pytest.raises(ValueError):
            NativePacket(index=0, payload=np.zeros((2, 2), dtype=np.uint8))


class TestCodedPacket:
    def test_basic_properties(self):
        packet = CodedPacket(code_vector=bytes([1, 0, 2]), payload=b"abcd", batch_id=3)
        assert packet.batch_size == 3
        assert packet.size == 4
        assert packet.batch_id == 3

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
    def test_payload_matrix_shape(self, rng):
        batch = make_batch(batch_size=4, packet_size=10, rng=rng)
        matrix = batch.payload_matrix()
        assert matrix.shape == (4, 10)
        assert batch.size == 4
        assert batch.packet_size == 10

    def test_empty_batch(self):
        batch = Batch(batch_id=0)
        assert batch.size == 0
        assert batch.packet_size == 0
        assert batch.payload_matrix().shape == (0, 0)


class TestSplitFile:
    def test_exact_multiple(self):
        data = bytes(range(256)) * 6  # 1536 bytes
        batches = split_file(data, batch_size=4, packet_size=128)
        assert len(batches) == 3
        assert all(batch.size == 4 for batch in batches)
        assert sum(batch.size for batch in batches) == 12

    def test_padding_of_last_packet(self):
        data = b"\xaa" * 100
        batches = split_file(data, batch_size=8, packet_size=64)
        assert len(batches) == 1
        assert batches[0].size == 2
        assert batches[0].packets[1].size == 64
        assert batches[0].packets[1].payload[36:].sum() == 0  # zero padding

    def test_roundtrip_content(self):
        data = np.random.default_rng(0).integers(0, 256, 1000, dtype=np.uint8).tobytes()
        batches = split_file(data, batch_size=4, packet_size=100)
        joined = b"".join(p.to_bytes() for batch in batches for p in batch.packets)
        assert joined[: len(data)] == data

    def test_last_batch_may_be_short(self):
        data = b"z" * (128 * 10)
        batches = split_file(data, batch_size=4, packet_size=128)
        assert [b.size for b in batches] == [4, 4, 2]

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
        assert np.array_equal(a.payload_matrix(), b.payload_matrix())
