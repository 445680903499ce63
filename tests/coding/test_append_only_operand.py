"""The forwarder's append-only payload operand must not be observable.

:class:`~repro.coding.buffer.BatchBuffer` keeps one
:class:`~repro.gf.kernels.ShiftedRows` over its raw payload slots for the
life of a batch and announces only the rows admitted since the last
pre-code.  Every code vector and payload byte a forwarder hands out must
equal what the two references produce under any interleaving of inserts,
combinations, hand-outs, inspections and flushes:

* :class:`RebuildingBatchBuffer` — ``combine_rows`` as it was when ``add``
  dropped the operand and the next pre-code rebuilt it over all admitted
  rows (verbatim), driven by the same random draws;
* ``ScalarBatchBuffer`` — the per-row Python-loop Gauss–Jordan, plus scalar
  ``scale_and_add`` loops over its rows / over the native payloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_vectorized_differential import ScalarBatchBuffer

from repro.coding.buffer import BatchBuffer
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.gf.arithmetic import scale_and_add
from repro.gf.kernels import ShiftedRows, gf_vecmat


class RebuildingBatchBuffer(BatchBuffer):
    """A buffer whose every insert discards the pre-code operand."""

    def add(self, packet: CodedPacket) -> bool:
        innovative = super().add(packet)
        if innovative:
            self._raw_operand = None
        return innovative

    def combine_rows(self, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = self._rank
        if count == 0:
            raise RuntimeError("cannot combine over an empty buffer")
        if coefficients.shape[0] != count:
            raise ValueError(
                f"expected {count} combination coefficients, "
                f"got {coefficients.shape[0]}")
        vector = gf_vecmat(coefficients, self._matrix[self._occupied])
        if not self._with_transform:
            payload = np.zeros(self.packet_size, dtype=np.uint8)
        elif self._payload_cache is not None:
            payload = gf_vecmat(coefficients, self._payload_cache)
        else:
            batch_size = self.batch_size
            reduced = gf_vecmat(
                coefficients,
                self._ops[self._occupied, batch_size:batch_size + count])
            if self._raw_operand is None:
                self._raw_operand = ShiftedRows(self._raw[:count])
            payload = self._raw_operand.vecmul(reduced)
        return vector, payload


def _rebuilding_forwarder(batch_size: int, packet_size: int,
                          rng: np.random.Generator) -> ForwarderEncoder:
    forwarder = ForwarderEncoder(batch_size, packet_size, rng)
    forwarder.buffer = RebuildingBatchBuffer(batch_size, packet_size)
    return forwarder


def _scalar_combination(coefficients: np.ndarray, rows: np.ndarray) -> np.ndarray:
    combined = np.zeros(rows.shape[1], dtype=np.uint8)
    for coefficient, row in zip(coefficients, rows):
        scale_and_add(combined, row, int(coefficient))
    return combined


def _assert_same_packet(actual: CodedPacket, expected: CodedPacket) -> None:
    assert actual.code_vector.tobytes() == expected.code_vector.tobytes()
    assert actual.payload.tobytes() == expected.payload.tobytes()
    assert actual.batch_id == expected.batch_id


OPERATIONS = ("add", "add", "add", "duplicate", "next_packet", "next_packet",
              "combine", "payload_matrix", "reset")


@given(batch_size=st.integers(1, 10), packet_size=st.sampled_from([0, 1, 16, 65, 1500]),
       seed=st.integers(0, 2**32 - 1),
       operations=st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_any_interleaving_matches_both_references(batch_size, packet_size, seed,
                                                  operations):
    source_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng((seed, 1))
    forwarder = ForwarderEncoder(batch_size, packet_size, np.random.default_rng((seed, 1)))
    rebuilding = _rebuilding_forwarder(batch_size, packet_size, reference_rng)
    handed_out: list[tuple[CodedPacket, bytes, bytes]] = []

    def new_batch() -> tuple[np.ndarray, SourceEncoder, ScalarBatchBuffer]:
        batch = make_batch(batch_size, packet_size, rng=source_rng)
        return (batch.payload_matrix(), SourceEncoder(batch, source_rng),
                ScalarBatchBuffer(batch_size, packet_size))

    natives, source, scalar = new_batch()
    last: CodedPacket | None = None
    for operation in operations:
        if operation in ("add", "duplicate"):
            if operation == "add" or last is None:
                last = source.next_packet()
            verdict = scalar.add(last.copy())
            assert forwarder.add_packet(last.copy()) == verdict
            assert rebuilding.add_packet(last.copy()) == verdict
            assert forwarder.rank == scalar.rank
        elif operation == "next_packet":
            if not forwarder.has_data():
                with pytest.raises(RuntimeError):
                    forwarder.next_packet()
                continue
            packet = forwarder.next_packet()
            _assert_same_packet(packet, rebuilding.next_packet())
            assert packet.code_vector.any()
            assert packet.payload.tobytes() == \
                _scalar_combination(packet.code_vector, natives).tobytes()
            for other, _, _ in handed_out:
                assert not np.shares_memory(packet.code_vector, other.code_vector)
                assert not np.shares_memory(packet.payload, other.payload)
            handed_out.append((packet, packet.code_vector.tobytes(),
                               packet.payload.tobytes()))
        elif operation == "combine":
            if not forwarder.has_data():
                continue
            coefficients = source_rng.integers(0, 256, forwarder.rank, dtype=np.uint8)
            vector, payload = forwarder.buffer.combine_rows(coefficients)
            expected_vector, expected_payload = rebuilding.buffer.combine_rows(coefficients)
            assert vector.tobytes() == expected_vector.tobytes()
            assert payload.tobytes() == expected_payload.tobytes()
            assert vector.tobytes() == _scalar_combination(
                coefficients, scalar.coefficient_matrix()).tobytes()
            assert payload.tobytes() == _scalar_combination(
                coefficients, scalar.payload_matrix()).tobytes()
        elif operation == "payload_matrix":
            # Materialises (and caches) the reduced payloads mid-batch.
            assert forwarder.buffer.payload_matrix().tobytes() == \
                scalar.payload_matrix().tobytes()
            assert rebuilding.buffer.payload_matrix().tobytes() == \
                scalar.payload_matrix().tobytes()
        else:
            # The flushed production buffer is reused; its reference starts
            # over with a buffer that has never held a row.
            forwarder.reset(batch_id=forwarder.batch_id + 1)
            rebuilding = _rebuilding_forwarder(batch_size, packet_size, reference_rng)
            rebuilding.batch_id = forwarder.batch_id
            natives, source, scalar = new_batch()
            last = None
            assert forwarder.rank == 0 and not forwarder.has_data()
        # Nothing the encoder did since changed a packet it gave away, and
        # what it holds now is not what it gave away.
        for packet, vector_bytes, payload_bytes in handed_out:
            assert packet.code_vector.tobytes() == vector_bytes
            assert packet.payload.tobytes() == payload_bytes
            if forwarder._precoded_vector is not None:
                assert not np.shares_memory(packet.code_vector,
                                            forwarder._precoded_vector)
                assert not np.shares_memory(packet.payload,
                                            forwarder._precoded_payload)


@pytest.mark.parametrize("packet_size", [16, 1500])
def test_reused_buffer_equals_a_fresh_one(packet_size, rng):
    """Stale stack rows of a flushed batch cannot leak into the next one."""
    batch_size = 8
    reused = BatchBuffer(batch_size, packet_size)
    for _ in range(3):
        fresh = BatchBuffer(batch_size, packet_size)
        source = SourceEncoder(make_batch(batch_size, packet_size, rng=rng), rng)
        while not fresh.is_full:
            packet = source.next_packet()
            assert reused.add(packet.copy()) == fresh.add(packet.copy())
            coefficients = rng.integers(0, 256, fresh.rank, dtype=np.uint8)
            for actual, expected in zip(reused.combine_rows(coefficients),
                                        fresh.combine_rows(coefficients)):
                assert actual.tobytes() == expected.tobytes()
        reused.clear()
        assert reused.rank == 0


def test_combine_rows_rejects_what_it_cannot_combine(rng):
    buffer = BatchBuffer(4, 16)
    with pytest.raises(RuntimeError, match="empty buffer"):
        buffer.combine_rows(np.zeros(0, dtype=np.uint8))
    buffer.add(SourceEncoder(make_batch(4, 16, rng=rng), rng).next_packet())
    with pytest.raises(ValueError, match="expected 1 combination coefficients"):
        buffer.combine_rows(np.ones(2, dtype=np.uint8))


@pytest.mark.parametrize("packet_size,rows_per_arrival", [(1500, 7), (16, 0), (0, 0)])
def test_a_batch_of_precodes_expands_each_row_once(packet_size, rows_per_arrival,
                                                   rng, shifted_rows):
    """Insert-then-pre-code K times: 7 K rows through ``_xtimes`` (one new
    row, seven shifts, per arrival) where rebuilding the operand took
    7 K (K + 1) / 2; none at all for a narrow or vector-only payload."""
    batch_size = 32
    source = SourceEncoder(make_batch(batch_size, packet_size, rng=rng), rng)
    packets = source.next_packets(batch_size)
    shifted_rows.clear()  # the source's own full-batch operand

    def rows_shifted(forwarder: ForwarderEncoder) -> int:
        shifted_rows.clear()
        for packet in packets:
            assert forwarder.add_packet(packet)
            forwarder.next_packet()
        return sum(shifted_rows)

    assert rows_shifted(ForwarderEncoder(batch_size, packet_size, rng)) == \
        rows_per_arrival * batch_size
    assert rows_shifted(_rebuilding_forwarder(batch_size, packet_size, rng)) == \
        rows_per_arrival * batch_size * (batch_size + 1) // 2
