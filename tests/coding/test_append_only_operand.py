"""Neither the append-only operand nor the deferred product may be observable.

A :class:`~repro.coding.buffer.BatchBuffer` keeps its raw payload slots as
one :class:`~repro.coding.packet.PayloadRows` for the life of a batch; the
packets a forwarder hands out carry coefficients over those slots and build
their bytes when first read, growing the operand by the rows admitted since
the last product.  Every code vector and payload byte must equal what the
eager references produce under any interleaving of inserts, combinations,
hand-outs, inspections, flushes *and reads* — a packet first read after
later arrivals, after later hand-outs, after its sender flushed the batch
or never before the very end carries the bytes it would have been given at
the hand-out:

* :class:`EagerForwarder` — the forwarder as it was when every pre-code
  built its bytes and every innovative arrival folded its bytes in with
  ``scale_and_add``: one combination over the buffer's materialised
  ``coefficient_matrix()`` / ``payload_matrix()`` per pre-code, its
  coefficients drawn by the reference functions
  (``random_code_vector`` / ``random_nonzero_coefficient``) from a twin of
  the generator the production encoder's stream reads in blocks;
* ``SourceEncoder.next_packets`` — the eager batched source, for the
  deferred single-packet form;
* ``ScalarBatchBuffer`` — the per-row Python-loop Gauss–Jordan, plus scalar
  ``scale_and_add`` loops over its rows / over the native payloads.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_vectorized_differential import ScalarBatchBuffer, row_halves

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder, decode_by_inversion
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.gf.arithmetic import (
    CoefficientStream,
    random_code_vector,
    random_nonzero_coefficient,
    scale_and_add,
)
from repro.gf.kernels import gf_vecmat


class EagerForwarder:
    """``ForwarderEncoder`` before payloads were deferred, draw for draw."""

    def __init__(self, batch_size: int, packet_size: int, rng: np.random.Generator,
                 batch_id: int = 0) -> None:
        self.buffer = BatchBuffer(batch_size, packet_size)
        self.rng = rng
        self.batch_id = batch_id
        self._vector: np.ndarray | None = None
        self._payload: np.ndarray | None = None

    def add_packet(self, packet: CodedPacket) -> bool:
        innovative = self.buffer.add(packet)
        if innovative:
            if self._vector is None:
                self._start_precode()
            else:
                coefficient = random_nonzero_coefficient(self.rng)
                scale_and_add(self._vector, np.frombuffer(packet.code_vector, dtype=np.uint8),
                              coefficient)
                scale_and_add(self._payload, packet.payload, coefficient)
        return innovative

    def combine_eagerly(self, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The combined vector and its bytes, at once, from the stored rows."""
        return (gf_vecmat(coefficients, self.buffer.coefficient_matrix()),
                gf_vecmat(coefficients, self.buffer.payload_matrix()))

    def _start_precode(self) -> None:
        coefficients = random_code_vector(self.buffer.rank, self.rng)
        self._vector, self._payload = self.combine_eagerly(coefficients)

    def next_packet(self) -> CodedPacket:
        if self._vector is None:
            self._start_precode()
        packet = CodedPacket.from_owned(self._vector.tobytes(), self._payload,
                                        batch_id=self.batch_id)
        self._start_precode()
        return packet


def _scalar_combination(coefficients: np.ndarray, rows: np.ndarray) -> np.ndarray:
    combined = np.zeros(rows.shape[1], dtype=np.uint8)
    for coefficient, row in zip(coefficients, rows):
        scale_and_add(combined, row, int(coefficient))
    return combined


def _assert_same_packet(actual: CodedPacket, expected: CodedPacket) -> None:
    assert actual.code_vector == expected.code_vector
    assert actual.size == expected.size
    assert actual.payload.tobytes() == expected.payload.tobytes()
    assert actual.batch_id == expected.batch_id


OPERATIONS = ("add", "add", "add", "duplicate", "next_packet", "next_packet",
              "read", "combine", "payload_matrix", "reset")


@given(batch_size=st.integers(1, 10), packet_size=st.sampled_from([0, 1, 16, 65, 1500]),
       seed=st.integers(0, 2**32 - 1),
       operations=st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_any_interleaving_matches_both_references(batch_size, packet_size, seed,
                                                  operations):
    source_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng((seed, 1))
    forwarder = ForwarderEncoder(batch_size, packet_size,
                                 CoefficientStream(np.random.default_rng((seed, 1))))
    eager = EagerForwarder(batch_size, packet_size, reference_rng)
    #: Every deferred packet handed out, with its sender, the packet an
    #: eager sender built at that moment and ``code_vector @ natives``.
    handed_out: list[tuple[CodedPacket, object, CodedPacket, bytes]] = []
    unread: list[tuple[CodedPacket, object]] = []
    sources: list[SourceEncoder] = []
    combined = 0

    def new_batch() -> tuple[np.ndarray, SourceEncoder, SourceEncoder, ScalarBatchBuffer]:
        batch = make_batch(batch_size, packet_size, rng=source_rng)
        draws = (seed, 2, len(sources))
        sources.append(SourceEncoder(
            batch, CoefficientStream(np.random.default_rng(draws))))
        return (batch.payloads, sources[-1],
                SourceEncoder(batch, CoefficientStream(np.random.default_rng(draws))),
                ScalarBatchBuffer(batch_size, packet_size))

    def hand_out(packet: CodedPacket, sender: object, expected: CodedPacket) -> None:
        # Immutable bytes, never the zero vector.
        assert packet.code_vector.__class__ is bytes
        assert packet.code_vector != bytes(batch_size)
        handed_out.append((packet, sender, expected, _scalar_combination(
            packet.code_vector, natives).tobytes()))
        unread.append((packet, sender))

    def built_by(sender: object) -> int:
        return (sum(1 for _, other, _, _ in handed_out if other is sender)
                - sum(1 for _, other in unread if other is sender))

    natives, source, oracle, scalar = new_batch()
    last: CodedPacket | None = None
    for operation in operations:
        if operation in ("add", "duplicate"):
            if operation == "add" or last is None:
                # The deferred packet stays unread; the forwarders are fed
                # its eager twin.
                last = oracle.next_packets(1)[0]
                hand_out(source.next_packet(), source, last)
            verdict = scalar.add(last.copy())
            assert forwarder.add_packet(last.copy()) == verdict
            assert eager.add_packet(last.copy()) == verdict
            assert forwarder.rank == scalar.rank
        elif operation == "next_packet":
            if not forwarder.has_data():
                with pytest.raises(RuntimeError):
                    forwarder.next_packet()
                continue
            hand_out(forwarder.next_packet(), forwarder, eager.next_packet())
        elif operation == "read":
            for packet, _ in unread:
                assert packet.payload.shape == (packet_size,)
            unread.clear()
        elif operation == "combine":
            if not forwarder.has_data():
                continue
            coefficients = source_rng.integers(0, 256, forwarder.rank, dtype=np.uint8)
            vector, mix = row_halves(forwarder.buffer,
                                  forwarder.buffer.combine_rows(coefficients.tobytes()))
            payload = forwarder.buffer.raw.combine(mix[:forwarder.rank])
            combined += 1
            expected_vector, expected_payload = eager.combine_eagerly(coefficients)
            assert vector == expected_vector.tobytes()
            assert payload.tobytes() == expected_payload.tobytes()
            assert not any(mix[forwarder.rank:])
            assert vector == _scalar_combination(
                coefficients, scalar.coefficient_matrix()).tobytes()
            assert payload.tobytes() == _scalar_combination(
                coefficients, scalar.payload_matrix()).tobytes()
        elif operation == "payload_matrix":
            # Materialises (and caches) the reduced payloads mid-batch.
            assert forwarder.buffer.payload_matrix().tobytes() == \
                scalar.payload_matrix().tobytes()
            assert eager.buffer.payload_matrix().tobytes() == \
                scalar.payload_matrix().tobytes()
        else:
            # The flushed production buffer is reused; its reference starts
            # over with a buffer that has never held a row, and the source
            # moves to its next batch.
            forwarder.reset(batch_id=forwarder.batch_id + 1)
            eager = EagerForwarder(batch_size, packet_size, reference_rng,
                                   batch_id=forwarder.batch_id)
            natives, source, oracle, scalar = new_batch()
            last = None
            assert forwarder.rank == 0 and not forwarder.has_data()
        # What the encoder holds now is a pre-code it can put on the air (an
        # int row: what it gave away are bytes cut from earlier ones), and
        # only a read builds bytes.
        if forwarder._precoded is not None:
            assert forwarder._precoded & ((1 << (8 * batch_size)) - 1)
        for packet, _ in unread:
            assert packet.size == packet_size
        assert forwarder.payloads_built == built_by(forwarder) + combined
        assert source.payloads_built == built_by(source)
    # Nothing the senders did since changed a packet they gave away, and a
    # first read this late — after every arrival, hand-out and flush, the
    # source batches later — yields the bytes of the eager product.
    # Latest first, so an earlier packet's mix is shorter than the operand
    # the later ones have grown by the time it is read.
    for packet, _, expected, native_bytes in reversed(handed_out):
        _assert_same_packet(packet, expected)
        assert packet.payload.tobytes() == native_bytes
    for index, (packet, _, _, _) in enumerate(handed_out):
        for other, _, _, _ in handed_out[:index]:
            assert not np.shares_memory(packet.payload, other.payload)
    unread.clear()
    assert forwarder.payloads_built == built_by(forwarder) + combined
    assert [sender.payloads_built for sender in sources] == \
        [built_by(sender) for sender in sources]


@pytest.mark.parametrize("packet_size", [16, 1500])
def test_reused_buffer_equals_a_fresh_one(packet_size, rng, stream):
    """Stale rows of a flushed batch cannot leak into the next one."""
    batch_size = 8
    reused = BatchBuffer(batch_size, packet_size)
    for _ in range(3):
        fresh = BatchBuffer(batch_size, packet_size)
        source = SourceEncoder(make_batch(batch_size, packet_size, rng=rng), stream)
        while not fresh.is_full:
            packet = source.next_packet()
            assert reused.add(packet.copy()) == fresh.add(packet.copy())
            coefficients = rng.integers(0, 256, fresh.rank, dtype=np.uint8).tobytes()
            vector, mix = row_halves(reused, reused.combine_rows(coefficients))
            expected_vector, expected_mix = row_halves(fresh, fresh.combine_rows(coefficients))
            assert vector == expected_vector
            assert mix == expected_mix
            assert reused.raw.combine(mix[:fresh.rank]).tobytes() == \
                fresh.raw.combine(expected_mix[:fresh.rank]).tobytes()
        reused.clear()
        assert reused.rank == 0


def test_combine_rows_rejects_what_it_cannot_combine(rng, stream):
    buffer = BatchBuffer(4, 16)
    with pytest.raises(RuntimeError, match="empty buffer"):
        buffer.combine_rows(b"")
    buffer.add(SourceEncoder(make_batch(4, 16, rng=rng), stream).next_packet())
    with pytest.raises(ValueError, match="expected 1 combination coefficients"):
        buffer.combine_rows(b"\x01\x01")


@pytest.mark.parametrize("packet_size,rows_per_arrival", [(1500, 1), (16, 0), (0, 0)])
def test_a_batch_of_precodes_expands_each_row_once(packet_size, rows_per_arrival,
                                                   rng, stream, shifted_rows):
    """Insert, hand out and read K times: K rows expanded into the stack
    (one new row per arrival); none at all for a narrow or vector-only
    payload — nor for a wide one nobody reads.  The eager reference
    materialises all r reduced payloads for every pre-code, one
    ``gf_matmul`` that expands all r rows of a wide payload each time."""
    batch_size = 32
    source = SourceEncoder(make_batch(batch_size, packet_size, rng=rng), stream)
    packets = source.next_packets(batch_size)
    shifted_rows.clear()  # the source's own full-batch operand

    def rows_shifted(forwarder: ForwarderEncoder | EagerForwarder, read: bool) -> int:
        shifted_rows.clear()
        for packet in packets:
            assert forwarder.add_packet(packet)
            handed_out = forwarder.next_packet()
            if read:
                handed_out.payload
        return sum(shifted_rows)

    assert rows_shifted(ForwarderEncoder(batch_size, packet_size, stream), True) == \
        rows_per_arrival * batch_size
    assert rows_shifted(ForwarderEncoder(batch_size, packet_size, stream), False) == 0
    assert rows_shifted(EagerForwarder(batch_size, packet_size, rng), False) == \
        (sum(range(1, batch_size + 1)) if rows_per_arrival else 0)


def test_a_wide_forwarder_holds_under_five_times_its_raw_rows_in_total(rng, stream):
    """A K = 128 forwarder of 1500-byte payloads that admitted K arrivals
    and had each hand-out read holds less than five times its raw payload
    rows in traced memory, the rows included: each row is stored once, as
    line 0 of its four stack lines, beside the coefficient rows.  A copy
    of the rows beside the stack would exceed it."""
    batch_size, packet_size = 128, 1500
    packets = SourceEncoder(make_batch(batch_size, packet_size, rng=rng),
                            stream).next_packets(batch_size)
    ForwarderEncoder(4, packet_size, stream)  # warm-up: lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        forwarder = ForwarderEncoder(batch_size, packet_size, stream)
        for packet in packets:
            forwarder.add_packet(packet)
            forwarder.next_packet().payload
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raw = batch_size * packet_size
    assert forwarder.rank == batch_size
    assert forwarder.buffer.raw.matrix.nbytes == raw
    assert held < 5 * raw


def test_a_wide_decode_writes_one_matrix_through_the_raw_operand(rng, stream):
    """A K = 128 decode of 1500-byte payloads multiplies its transform
    through the raw slots' own operand into one K x S matrix, which it
    returns: it equals the inversion decode, peaks under 1.2 MB of
    traced memory (a second stack over the rows is 0.77 MB alone) and
    leaves at most 1.2 times the K x S natives behind."""
    batch_size, packet_size = 128, 1500
    packets = SourceEncoder(make_batch(batch_size, packet_size, rng=rng),
                            stream).next_packets(batch_size + 8)
    warm = BatchDecoder(2, packet_size)  # warm-up: lazy imports
    for packet in SourceEncoder(make_batch(2, packet_size, rng=rng),
                                stream).next_packets(4):
        warm.add_packet(packet)
    warm.decode()
    decoder = BatchDecoder(batch_size, packet_size)
    admitted = [packet for packet in packets
                if not decoder.is_complete and decoder.add_packet(packet)]
    gc.collect()
    tracemalloc.start()
    try:
        decoded = decoder.decode()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(decoded, decode_by_inversion(admitted))
    assert decoded.shape == (batch_size, packet_size)
    rows = batch_size * packet_size
    assert peak < 1.2e6
    assert held <= 1.2 * rows
