"""Tests for the source/forwarder encoders and the destination decoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.decoder import BatchDecoder, decode_by_inversion
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import Batch, make_batch
from repro.gf.arithmetic import CoefficientStream
from repro.gf.matrix import SingularMatrixError


class TestSourceEncoder:
    def test_code_vector_length_matches_batch(self, rng, stream):
        batch = make_batch(batch_size=7, packet_size=20, rng=rng)
        encoder = SourceEncoder(batch, stream)
        packet = encoder.next_packet()
        assert packet.batch_size == 7
        assert packet.size == 20
        assert packet.batch_id == batch.batch_id

    def test_payload_is_consistent_linear_combination(self, rng, stream):
        batch = make_batch(batch_size=4, packet_size=30, rng=rng)
        encoder = SourceEncoder(batch, stream)
        packet = encoder.next_packet()
        from repro.gf.arithmetic import scale_and_add
        expected = np.zeros(30, dtype=np.uint8)
        for index, coefficient in enumerate(packet.code_vector):
            scale_and_add(expected, batch.payloads[index], int(coefficient))
        assert np.array_equal(packet.payload, expected)

    def test_never_emits_zero_vector(self, rng, stream):
        batch = make_batch(batch_size=2, packet_size=4, rng=rng)
        encoder = SourceEncoder(batch, stream)
        for _ in range(200):
            assert encoder.next_packet().code_vector != bytes(2)

    def test_empty_batch_rejected(self, stream):
        with pytest.raises(ValueError):
            SourceEncoder(Batch(0, np.zeros((0, 8), dtype=np.uint8)), stream)

    def test_counts_generated_packets(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        encoder = SourceEncoder(batch, stream)
        for _ in range(5):
            encoder.next_packet()
        assert encoder.packets_generated == 5


class TestForwarderEncoder:
    def test_recoded_packets_stay_in_source_span(self, rng, stream):
        """A forwarder's output is always a linear combination of the natives
        it has (indirectly) heard — Section 3.1.2's algebra."""
        batch = make_batch(batch_size=5, packet_size=16, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=5, packet_size=16, stream=stream)
        for _ in range(3):
            forwarder.add_packet(source.next_packet())
        recoded = forwarder.next_packet()
        # Verify the payload equals the combination implied by the code vector.
        from repro.gf.arithmetic import scale_and_add
        expected = np.zeros(16, dtype=np.uint8)
        for index, coefficient in enumerate(recoded.code_vector):
            scale_and_add(expected, batch.payloads[index], int(coefficient))
        assert np.array_equal(recoded.payload, expected)

    def test_has_data_and_rank(self, rng, stream):
        forwarder = ForwarderEncoder(batch_size=4, packet_size=8, stream=stream)
        assert not forwarder.has_data()
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder.add_packet(source.next_packet())
        assert forwarder.has_data()
        assert forwarder.rank == 1

    def test_next_packet_without_data_raises(self, stream):
        forwarder = ForwarderEncoder(batch_size=4, packet_size=8, stream=stream)
        with pytest.raises(RuntimeError):
            forwarder.next_packet()

    def test_non_innovative_packets_do_not_grow_rank(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, stream=stream)
        packet = source.next_packet()
        assert forwarder.add_packet(packet) is True
        assert forwarder.add_packet(packet.copy()) is False
        assert forwarder.rank == 1

    def test_precoding_reflects_latest_arrival(self, rng, stream):
        """Section 3.2.3(c): the pre-coded packet is updated with new arrivals
        so a transmission reflects everything the node knows."""
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=4, packet_size=8, stream=stream)
        forwarder.add_packet(source.next_packet())
        forwarder.add_packet(source.next_packet())
        packet = forwarder.next_packet()
        assert packet.code_vector != bytes(4)

    def test_reset_flushes_state(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        source = SourceEncoder(batch, stream)
        forwarder = ForwarderEncoder(batch_size=3, packet_size=8, stream=stream)
        forwarder.add_packet(source.next_packet())
        forwarder.reset(batch_id=5)
        assert forwarder.rank == 0
        assert forwarder.batch_id == 5
        assert not forwarder.has_data()


class TestBatchDecoder:
    def test_decode_direct_from_source(self, rng, stream):
        batch = make_batch(batch_size=8, packet_size=64, rng=rng)
        encoder = SourceEncoder(batch, stream)
        decoder = BatchDecoder(batch_size=8, packet_size=64)
        innovative = 0
        while not decoder.is_complete:
            if decoder.add_packet(encoder.next_packet()):
                innovative += 1
        assert innovative == 8
        assert np.array_equal(decoder.decode(), batch.payloads)

    def test_decode_through_forwarder_chain(self, rng, stream):
        """Source -> forwarder -> forwarder -> destination, all re-coding."""
        batch = make_batch(batch_size=6, packet_size=32, rng=rng)
        source = SourceEncoder(batch, stream)
        hop1 = ForwarderEncoder(batch_size=6, packet_size=32, stream=stream)
        hop2 = ForwarderEncoder(batch_size=6, packet_size=32, stream=stream)
        decoder = BatchDecoder(batch_size=6, packet_size=32)
        for _ in range(8):
            hop1.add_packet(source.next_packet())
        for _ in range(8):
            hop2.add_packet(hop1.next_packet())
        while not decoder.is_complete:
            decoder.add_packet(hop2.next_packet())
        assert np.array_equal(decoder.decode(), batch.payloads)

    def test_missing_counts_down(self, rng, stream):
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        encoder = SourceEncoder(batch, stream)
        decoder = BatchDecoder(batch_size=4, packet_size=8)
        assert decoder.batch_size - decoder.rank == 4
        decoder.add_packet(encoder.next_packet())
        assert decoder.batch_size - decoder.rank == 3

    def test_decode_incomplete_raises(self):
        decoder = BatchDecoder(batch_size=4, packet_size=8)
        with pytest.raises(RuntimeError):
            decoder.decode()


class TestDecodeByInversion:
    def test_matches_incremental_decoder(self, rng, stream):
        batch = make_batch(batch_size=5, packet_size=16, rng=rng)
        encoder = SourceEncoder(batch, stream)
        packets = []
        decoder = BatchDecoder(batch_size=5, packet_size=16)
        while len(packets) < 5:
            packet = encoder.next_packet()
            if decoder.add_packet(packet):
                packets.append(packet)
        recovered = decode_by_inversion(packets)
        assert np.array_equal(recovered, batch.payloads)

    def test_wrong_packet_count_rejected(self, rng, stream):
        batch = make_batch(batch_size=4, packet_size=8, rng=rng)
        encoder = SourceEncoder(batch, stream)
        with pytest.raises(ValueError):
            decode_by_inversion([encoder.next_packet()])

    def test_dependent_packets_raise(self, rng, stream):
        batch = make_batch(batch_size=3, packet_size=8, rng=rng)
        encoder = SourceEncoder(batch, stream)
        packet = encoder.next_packet()
        with pytest.raises(SingularMatrixError):
            decode_by_inversion([packet, packet.copy(), packet.copy()])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            decode_by_inversion([])


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_end_to_end_decoding(batch_size, packet_size, seed):
    """Random coding at the source always lets the destination recover the
    batch once K innovative packets arrive (Ho et al.'s result in practice)."""
    rng = np.random.default_rng(seed)
    batch = make_batch(batch_size=batch_size, packet_size=packet_size, rng=rng)
    encoder = SourceEncoder(batch, CoefficientStream(rng))
    decoder = BatchDecoder(batch_size=batch_size, packet_size=packet_size)
    attempts = 0
    while not decoder.is_complete:
        decoder.add_packet(encoder.next_packet())
        attempts += 1
        assert attempts < 20 * batch_size + 50
    assert np.array_equal(decoder.decode(), batch.payloads)
