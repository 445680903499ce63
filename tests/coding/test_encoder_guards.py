"""Regression tests for encoder ownership and degenerate-draw guards.

Two classes of bug are pinned down here:

* **Aliasing**: a packet handed out by an encoder must never change when
  the encoder's internal state is later updated in place (the forwarder
  folds new arrivals into its pre-coded ``[code | mix]`` row) — including
  the bytes a packet has not built yet.
* **Degenerate draws**: the all-zero coefficient vector must be re-drawn
  wherever random combinations are formed — source coding, forwarder
  pre-coding — via the single shared guard
  :func:`repro.gf.arithmetic.random_code_vector`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import make_batch
from repro.gf.arithmetic import random_code_vector, vec_scale
from repro.gf.kernels import gf_vecmat


class StubRng:
    """Serves pre-canned draws; delegates anything unexpected to a real rng."""

    def __init__(self, canned: list[np.ndarray], seed: int = 0) -> None:
        self.canned = list(canned)
        self.fallback = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        self.calls += 1
        if self.canned:
            draw = self.canned.pop(0)
            if size is not None and np.shape(draw) != (np.prod(size),) \
                    and np.shape(draw) != tuple(np.atleast_1d(size)):
                raise AssertionError(
                    f"stub draw shape {np.shape(draw)} does not match size {size}")
            return np.asarray(draw, dtype=dtype) if size is not None else draw
        return self.fallback.integers(low, high, size=size, dtype=dtype,
                                      endpoint=endpoint)


class TestRandomCodeVectorGuard:
    def test_redraws_all_zero_vector(self):
        zero = np.zeros(4, dtype=np.uint8)
        real = np.array([3, 0, 7, 1], dtype=np.uint8)
        rng = StubRng([zero, zero, real])
        drawn = random_code_vector(4, rng)
        assert np.array_equal(drawn, real)
        assert rng.calls == 3

    def test_source_encoder_skips_zero_draw(self, rng):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        zero = np.zeros(3, dtype=np.uint8)
        real = np.array([0, 5, 0], dtype=np.uint8)
        encoder = SourceEncoder(batch, StubRng([zero, real]))
        packet = encoder.next_packet()
        assert np.array_equal(packet.code_vector, real)

    def test_forwarder_precode_skips_zero_draw(self, rng):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, rng)
        first = source.next_packet()
        # The stub drives only the forwarder: its first pre-code draw (over
        # the single buffered packet) comes up all-zero and must be re-drawn.
        zero = np.zeros(1, dtype=np.uint8)
        combo = np.array([9], dtype=np.uint8)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8,
                                     rng=StubRng([zero, combo]))
        assert forwarder.add_packet(first)
        assert forwarder._precoded_vector is not None
        assert forwarder._precoded_vector.any()
        recoded = forwarder.next_packet()
        assert recoded.code_vector.any()

    def test_forwarder_fold_guard_recovers_from_cancellation(self, rng):
        """If an in-place fold ever cancels the combination, it is rebuilt.

        The cancellation cannot arise from a genuinely innovative arrival
        (independence forbids it), so the internal pre-coded state is
        forced into the pathological position directly.
        """
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        source = SourceEncoder(batch, rng)
        forwarder = ForwarderEncoder(batch_size=4, packet_size=8,
                                     rng=np.random.default_rng(5))
        forwarder.add_packet(source.next_packet())
        incoming = source.next_packet()
        # Pin the next fold coefficient, then plant a pre-coded vector that
        # the fold will cancel exactly.
        coefficient = 7
        forwarder.rng = StubRng([coefficient])
        forwarder._precoded_vector = vec_scale(incoming.code_vector, coefficient)
        forwarder._precoded_mix = np.zeros(4, dtype=np.uint8)
        assert forwarder.add_packet(incoming)
        assert forwarder._precoded_vector is not None
        assert forwarder._precoded_vector.any()
        # Re-coded over both stored rows, bytes included.
        recoded = forwarder.next_packet()
        assert np.array_equal(recoded.payload,
                              gf_vecmat(recoded.code_vector, batch.payload_matrix()))


class TestHandedOutPacketsAreImmutable:
    def test_forwarder_packet_unchanged_by_later_arrivals(self, rng):
        batch = make_batch(batch_size=4, packet_size=16, rng=rng)
        source = SourceEncoder(batch, rng)
        forwarder = ForwarderEncoder(batch_size=4, packet_size=16, rng=rng)
        forwarder.add_packet(source.next_packet())
        forwarder.add_packet(source.next_packet())

        handed_out = forwarder.next_packet()
        unread = forwarder.next_packet()
        vector_snapshot = handed_out.code_vector.copy()
        payload_snapshot = handed_out.payload.copy()
        unread_payload = gf_vecmat(unread.code_vector, batch.payload_matrix())

        # Every subsequent arrival folds into the (new) pre-coded packet in
        # place; none of it may reach the packets already handed out,
        # whether or not their bytes were built by then.
        for _ in range(6):
            forwarder.add_packet(source.next_packet())
        # Built over all four raw slots, before the packet that knows two.
        assert forwarder.next_packet().payload.shape == (16,)

        assert np.array_equal(handed_out.code_vector, vector_snapshot)
        assert np.array_equal(handed_out.payload, payload_snapshot)
        assert np.array_equal(unread.payload, unread_payload)

    def test_forwarder_drops_references_on_handout(self, rng):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, rng)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, rng=rng)
        forwarder.add_packet(source.next_packet())
        packet = forwarder.next_packet()
        # The freshly pre-coded internal row must share nothing with the
        # one inside the handed-out packet.
        assert not np.shares_memory(forwarder._precoded_vector, packet.code_vector)
        assert not np.shares_memory(forwarder._precoded_mix, packet._row)

    def test_source_packets_independent_of_each_other(self, rng):
        batch = make_batch(batch_size=4, packet_size=16, rng=rng)
        encoder = SourceEncoder(batch, rng)
        packets = encoder.next_packets(4)
        snapshots = [(p.code_vector.copy(), p.payload.copy()) for p in packets]
        # Mutating one packet's arrays must not leak into its siblings
        # (they are disjoint rows of per-call matrices).
        packets[0].payload[:] = 0
        packets[0].code_vector[:] = 0
        for packet, (vector, payload) in zip(packets[1:], snapshots[1:]):
            assert np.array_equal(packet.code_vector, vector)
            assert np.array_equal(packet.payload, payload)

    def test_buffer_does_not_alias_inserted_packets(self, rng):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, rng)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, rng=rng)
        packet = source.next_packet()
        forwarder.add_packet(packet)
        stored = forwarder.buffer.stored_packets()[0]
        packet.payload[:] = 0
        assert stored.payload.any() or not stored.payload.size


@pytest.mark.parametrize("count", [0, -3])
def test_next_packets_rejects_non_positive_count(count, rng):
    batch = make_batch(batch_size=3, packet_size=8, rng=rng)
    encoder = SourceEncoder(batch, rng)
    with pytest.raises(ValueError):
        encoder.next_packets(count)
