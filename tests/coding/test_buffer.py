"""Tests for the row-echelon batch buffer (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.buffer import BatchBuffer
from repro.coding.encoder import SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.gf.matrix import rank


def coded(vector, payload=None, k=None):
    k = k if k is not None else len(vector)
    payload = payload if payload is not None else np.zeros(4, dtype=np.uint8)
    return CodedPacket(code_vector=np.asarray(vector, dtype=np.uint8).tobytes(),
                       payload=payload)


class TestInnovationCheck:
    def test_first_packet_is_innovative(self):
        buffer = BatchBuffer(4, 4)
        assert buffer.add(coded([1, 2, 3, 4])) is True
        assert buffer.rank == 1

    def test_duplicate_is_not_innovative(self):
        buffer = BatchBuffer(4, 4)
        packet = coded([1, 2, 3, 4])
        assert buffer.add(packet)
        assert buffer.add(packet.copy()) is False
        assert buffer.rank == 1

    def test_scaled_copy_is_not_innovative(self):
        buffer = BatchBuffer(3, 4)
        buffer.add(coded([2, 4, 6]))
        # 3 * (2,4,6) in GF(2^8) is linearly dependent on the first row.
        from repro.gf.arithmetic import vec_scale
        scaled = vec_scale(np.array([2, 4, 6], dtype=np.uint8), 3)
        assert buffer.add(coded(scaled)) is False

    def test_zero_vector_is_never_innovative(self):
        buffer = BatchBuffer(4, 4)
        assert buffer.add(coded([0, 0, 0, 0])) is False
        assert buffer.rank == 0
        assert buffer.received == 1
        assert buffer.innovative == 0

    def test_rank_bounded_by_batch_size(self, rng):
        buffer = BatchBuffer(5, 8)
        for _ in range(50):
            vector = rng.integers(0, 256, 5, dtype=np.uint8)
            payload = rng.integers(0, 256, 8, dtype=np.uint8)
            buffer.add(coded(vector, payload))
        assert buffer.rank <= 5
        assert buffer.is_full

    def test_is_innovative_does_not_mutate(self):
        buffer = BatchBuffer(3, 4)
        buffer.add(coded([1, 0, 0]))
        probe = bytes([0, 1, 0])
        assert buffer.is_innovative(probe)
        assert buffer.rank == 1
        buffer.add(coded([0, 1, 0]))
        assert not buffer.is_innovative(bytes([1, 1, 0]))

    def test_mismatched_vector_length_rejected(self):
        buffer = BatchBuffer(4, 4)
        with pytest.raises(ValueError):
            buffer.add(coded([1, 2, 3]))

    def test_mismatched_payload_length_rejected(self):
        buffer = BatchBuffer(3, 4)
        with pytest.raises(ValueError):
            buffer.add(coded([1, 2, 3], payload=np.zeros(5, dtype=np.uint8)))


class TestEchelonStructure:
    def test_stored_matrix_rank_equals_reported_rank(self, rng):
        buffer = BatchBuffer(6, 4)
        for _ in range(4):
            buffer.add(coded(rng.integers(0, 256, 6, dtype=np.uint8)))
        stored = buffer.coefficient_matrix()
        assert rank(stored) == buffer.rank

    def test_occupied_pivots_sorted(self, rng):
        buffer = BatchBuffer(6, 4)
        for _ in range(3):
            buffer.add(coded(rng.integers(0, 256, 6, dtype=np.uint8)))
        pivots = buffer.occupied_pivots()
        assert pivots == sorted(pivots)
        assert len(pivots) == buffer.rank

    def test_full_rank_buffer_holds_identity(self, rng, stream):
        batch = make_batch(batch_size=5, packet_size=12, rng=rng)
        encoder = SourceEncoder(batch, stream)
        buffer = BatchBuffer(5, 12)
        while not buffer.is_full:
            buffer.add(encoder.next_packet())
        assert np.array_equal(buffer.coefficient_matrix(), np.eye(5, dtype=np.uint8))

    def test_clear(self, rng):
        buffer = BatchBuffer(4, 4)
        buffer.add(coded(rng.integers(0, 256, 4, dtype=np.uint8)))
        buffer.clear()
        assert buffer.rank == 0
        assert buffer.coefficient_matrix().shape == (0, 4)
        assert buffer.payload_matrix().shape == (0, 4)


class TestDecodeViaBuffer:
    def test_decode_recovers_native_payloads(self, rng, stream):
        batch = make_batch(batch_size=6, packet_size=50, rng=rng)
        encoder = SourceEncoder(batch, stream)
        buffer = BatchBuffer(6, 50)
        while not buffer.is_full:
            buffer.add(encoder.next_packet())
        decoded = buffer.decode()
        assert np.array_equal(decoded, batch.payloads)

    def test_decode_before_full_raises(self):
        buffer = BatchBuffer(3, 4)
        buffer.add(coded([1, 0, 0]))
        with pytest.raises(RuntimeError):
            buffer.decode()

    def test_payload_free_buffer_decodes_to_empty_rows(self):
        buffer = BatchBuffer(2, 0)
        buffer.add(coded([1, 0], payload=b""))
        with pytest.raises(RuntimeError):
            buffer.decode()
        buffer.add(coded([3, 1], payload=b""))
        decoded = buffer.decode()
        assert decoded.shape == (2, 0) and decoded.dtype == np.uint8
        np.testing.assert_array_equal(buffer.coefficient_matrix(), np.eye(2, dtype=np.uint8))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_property_rank_matches_gaussian_elimination(batch_size, seed):
    """The buffer's incremental rank always equals batch Gaussian elimination."""
    rng = np.random.default_rng(seed)
    buffer = BatchBuffer(batch_size, 1)
    vectors = []
    for _ in range(batch_size + 3):
        vector = rng.integers(0, 256, batch_size, dtype=np.uint8)
        vectors.append(vector)
        buffer.add(CodedPacket(code_vector=vector.tobytes(),
                               payload=np.zeros(1, dtype=np.uint8)))
    assert buffer.rank == rank(np.stack(vectors))


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_property_innovative_count_never_exceeds_k(batch_size, seed):
    """No matter what arrives, at most K packets are ever admitted (Section 3.2.3a)."""
    rng = np.random.default_rng(seed)
    buffer = BatchBuffer(batch_size, 1)
    admitted = 0
    for _ in range(3 * batch_size):
        vector = rng.integers(0, 2, batch_size, dtype=np.uint8) * rng.integers(0, 256)
        if buffer.add(CodedPacket(code_vector=vector.astype(np.uint8).tobytes(),
                                  payload=np.zeros(1, dtype=np.uint8))):
            admitted += 1
    assert admitted == buffer.rank <= batch_size
