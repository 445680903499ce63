"""Regression tests for encoder ownership and degenerate-draw guards.

Two classes of bug are pinned down here:

* **Aliasing**: a packet handed out by an encoder must never change when
  the encoder's internal state is later updated (the forwarder folds new
  arrivals into its pre-coded ``[code | mix]`` int row) — including the
  bytes a packet has not built yet.
* **Degenerate draws**: the all-zero coefficient vector must be re-drawn
  wherever random combinations are formed — source coding, forwarder
  pre-coding — via the single shared guard
  :meth:`repro.gf.arithmetic.CoefficientStream.code_vector`, driven here
  through the generator words it reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import make_batch
from repro.gf.arithmetic import CoefficientStream, vec_scale
from repro.gf.kernels import gf_vecmat


class StubWords:
    """A generator whose first 32-bit words are canned (the rest come from a
    real one): what a :class:`CoefficientStream` reads, word for word."""

    def __init__(self, words: list[int], seed: int = 0) -> None:
        self.words = list(words)
        self.fallback = np.random.default_rng(seed)

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        # The one call a stream makes.
        assert (low, high, dtype, endpoint) == (0, 1 << 32, np.uint32, False)
        block = self.fallback.integers(low, high, size=size, dtype=dtype)
        canned, self.words = self.words[:size], self.words[size:]
        block[:len(canned)] = canned
        return block


def _word(*coefficients: int) -> int:
    """The word whose little-endian bytes are ``coefficients``."""
    return int.from_bytes(bytes(coefficients).ljust(4, b"\0"), "little")


def _as_array(vector: bytes) -> np.ndarray:
    """A code vector as the uint8 array the numpy oracles take."""
    return np.frombuffer(vector, dtype=np.uint8)


def _code_half(forwarder: ForwarderEncoder) -> bytes:
    """The code vector of a forwarder's pre-coded ``[code | mix]`` row."""
    buffer = forwarder.buffer
    return forwarder._precoded.to_bytes(buffer.width, "little")[:buffer.batch_size]


class TestRandomCodeVectorGuard:
    def test_redraws_all_zero_vector(self):
        real = bytes([3, 0, 7, 1])
        stream = CoefficientStream(StubWords([0, 0, _word(*real), _word(8)]))
        assert stream.code_vector(4) == real
        # Three words went into it: the next draw starts at the fourth.
        assert stream.code_vector(1) == bytes([8])

    def test_source_encoder_skips_zero_draw(self, rng):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        # The fourth byte of a word is not part of a 3-coefficient vector.
        stub = StubWords([_word(0, 0, 0, 9), _word(0, 5, 0)])
        encoder = SourceEncoder(batch, CoefficientStream(stub))
        packet = encoder.next_packet()
        assert packet.code_vector == bytes([0, 5, 0])

    def test_forwarder_precode_skips_zero_draw(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        first = source.next_packet()
        # The stub drives only the forwarder: its first pre-code draw (over
        # the single buffered packet: the low byte of one word) comes up
        # all-zero and must be re-drawn.
        stub = StubWords([_word(0, 1, 2, 3), _word(9)])
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8,
                                     stream=CoefficientStream(stub))
        assert forwarder.add_packet(first)
        (stored,) = forwarder.buffer.coefficient_matrix()
        assert _code_half(forwarder) == vec_scale(stored, 9).tobytes()
        recoded = forwarder.next_packet()
        assert recoded.code_vector != bytes(3)
        assert np.array_equal(recoded.payload,
                              gf_vecmat(_as_array(recoded.code_vector),
                                        batch.payloads))

    def test_forwarder_fold_guard_recovers_from_cancellation(self, rng, stream):
        """If a fold ever cancels the combination's code half, it is rebuilt.

        The cancellation cannot arise from a genuinely innovative arrival
        (independence forbids it), so the internal pre-coded row is forced
        into the pathological position directly.  The fold still writes its
        coefficient into the mix half, so the row as a whole stays non-zero:
        the guard must look at the code half alone.
        """
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=4, packet_size=8,
                                     stream=CoefficientStream(np.random.default_rng(5)))
        forwarder.add_packet(source.next_packet())
        incoming = source.next_packet()
        # Pin the next fold coefficient (the bounded draw maps this word to
        # it), then plant a pre-coded vector that the fold will cancel
        # exactly.
        coefficient = 7
        word = ((coefficient - 1) << 32) // 255 + 1
        assert CoefficientStream(StubWords([word])).nonzero_coefficient() == coefficient
        forwarder.stream = CoefficientStream(StubWords([word]))
        forwarder._precoded = int.from_bytes(
            vec_scale(_as_array(incoming.code_vector), coefficient).tobytes(), "little")
        assert forwarder.add_packet(incoming)
        # Re-coded over both stored rows: the fold coefficient, then one
        # fresh combination drawn from the same words.
        twin = CoefficientStream(StubWords([word]))
        assert twin.nonzero_coefficient() == coefficient
        assert forwarder._precoded == forwarder.buffer.combine_rows(twin.code_vector(2))
        assert _code_half(forwarder) != bytes(4)
        # No zero vector goes on the air, and the bytes follow the vectors.
        for _ in range(3):
            recoded = forwarder.next_packet()
            assert recoded.code_vector != bytes(4)
            assert np.array_equal(recoded.payload,
                                  gf_vecmat(_as_array(recoded.code_vector),
                                            batch.payloads))


class TestHandedOutPacketsAreImmutable:
    def test_forwarder_packet_unchanged_by_later_arrivals(self, rng, stream):
        batch = make_batch(batch_size=4, packet_size=16, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=4, packet_size=16, stream=stream)
        forwarder.add_packet(source.next_packet())
        forwarder.add_packet(source.next_packet())

        handed_out = forwarder.next_packet()
        unread = forwarder.next_packet()
        vector_snapshot = handed_out.code_vector
        payload_snapshot = handed_out.payload.copy()
        unread_payload = gf_vecmat(_as_array(unread.code_vector), batch.payloads)

        # Every subsequent arrival folds into the (new) pre-coded packet in
        # place; none of it may reach the packets already handed out,
        # whether or not their bytes were built by then.
        for _ in range(6):
            forwarder.add_packet(source.next_packet())
        # Built over all four raw slots, before the packet that knows two.
        assert forwarder.next_packet().payload.shape == (16,)

        assert handed_out.code_vector == vector_snapshot
        assert np.array_equal(handed_out.payload, payload_snapshot)
        assert np.array_equal(unread.payload, unread_payload)

    def test_forwarder_drops_references_on_handout(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, stream=stream)
        forwarder.add_packet(source.next_packet())
        precoded = forwarder._precoded.to_bytes(forwarder.buffer.width, "little")
        packet = forwarder.next_packet()
        # The packet takes immutable bytes cut from the pre-coded row: its
        # code half, and its mix over the one raw slot filled.
        assert packet.code_vector.__class__ is bytes and packet._row.__class__ is bytes
        assert (packet.code_vector, packet._row) == (precoded[:3], precoded[3:4])
        # Folds into the fresh pre-code leave the handed-out packet alone.
        for _ in range(3):
            forwarder.add_packet(source.next_packet())
        assert (packet.code_vector, packet._row) == (precoded[:3], precoded[3:4])

    def test_source_packets_independent_of_each_other(self, rng, stream):
        batch = make_batch(batch_size=4, packet_size=16, rng=rng)
        encoder = SourceEncoder(batch, stream)
        packets = encoder.next_packets(4)
        snapshots = [(p.code_vector, p.payload.copy()) for p in packets]
        # Code vectors are immutable bytes; mutating one packet's payload
        # must not leak into its siblings (they are disjoint rows of a
        # per-call matrix).
        assert all(packet.code_vector.__class__ is bytes for packet in packets)
        packets[0].payload[:] = 0
        for packet, (vector, payload) in zip(packets[1:], snapshots[1:]):
            assert packet.code_vector == vector
            assert np.array_equal(packet.payload, payload)

    def test_buffer_does_not_alias_inserted_packets(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, stream=stream)
        packet = source.next_packet()
        twin = BatchBuffer(3, 8)
        twin.add(packet.copy())
        forwarder.add_packet(packet)
        packet.payload[:] = 0
        assert twin.payload_matrix().any()
        np.testing.assert_array_equal(forwarder.buffer.payload_matrix(),
                                      twin.payload_matrix())


@pytest.mark.parametrize("count", [0, -3])
def test_next_packets_rejects_non_positive_count(count, rng, stream):
    batch = make_batch(batch_size=3, packet_size=8, rng=rng)
    encoder = SourceEncoder(batch, stream)
    with pytest.raises(ValueError):
        encoder.next_packets(count)
