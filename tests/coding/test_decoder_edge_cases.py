"""Decoder edge cases.

The four corners the property streams only brush in passing, pinned down
explicitly:

* re-insertion of an already-seen packet (non-innovative, no state drift);
* insertion after the buffer reached full rank (rejected, counters still
  advance, decode unchanged);
* the payload-free width-0 mode decoding at K=64 — double the
  usual batch size, zero payload bytes end to end;
* a forwarder pre-coding a rank-deficient buffer: the pre-coded packet
  must stay inside the heard subspace and carry the payload its code
  vector promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.decoder import BatchDecoder, decode_by_inversion
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import make_batch
from repro.gf.arithmetic import CoefficientStream
from repro.gf.kernels import gf_matmul
from repro.gf.matrix import rank as matrix_rank

#: The decoder / forwarder under test, reported under the id the one
#: buffer implementation has always had.
DECODER = pytest.mark.parametrize("make_decoder", [BatchDecoder],
                                  ids=["vectorized-mul"])
FORWARDER = pytest.mark.parametrize("make_forwarder", [ForwarderEncoder],
                                    ids=["vectorized-mul"])

K = 16
PACKET_SIZE = 64


def _coded_packets(count: int, batch_size: int = K,
                   packet_size: int = PACKET_SIZE, seed: int = 7):
    batch = make_batch(batch_size=batch_size, packet_size=packet_size,
                       rng=np.random.default_rng(seed))
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(seed + 1)))
    return batch, encoder.next_packets(count)


@DECODER
def test_reinserting_a_seen_packet_is_not_innovative(make_decoder):
    _, packets = _coded_packets(K // 2)
    decoder = make_decoder(batch_size=K, packet_size=PACKET_SIZE)
    assert [decoder.add_packet(packet) for packet in packets] == [True] * len(packets)
    before = decoder.buffer.coefficient_matrix()

    verdicts = [decoder.add_packet(packet) for packet in packets]  # replay every packet
    assert verdicts == [False] * len(packets)
    assert decoder.rank == len(packets)
    assert decoder.buffer.received == 2 * len(packets)
    assert decoder.buffer.innovative == len(packets)
    np.testing.assert_array_equal(decoder.buffer.coefficient_matrix(), before)


@DECODER
def test_insertion_after_full_rank_is_rejected(make_decoder):
    batch, packets = _coded_packets(K + 4)
    decoder = make_decoder(batch_size=K, packet_size=PACKET_SIZE)
    for coded in packets[:K]:
        decoder.add_packet(coded)
    assert decoder.is_complete
    decoded_before = decoder.decode()

    for coded in packets[K:]:
        assert decoder.add_packet(coded) is False
    assert decoder.rank == K
    assert decoder.batch_size - decoder.rank == 0
    assert decoder.buffer.received == K + 4
    decoded_after = decoder.decode()
    np.testing.assert_array_equal(decoded_after, decoded_before)
    np.testing.assert_array_equal(decoded_after, batch.payloads)


@DECODER
def test_vector_only_decode_at_k64(make_decoder):
    """Zero-byte payloads at K=64: rank machinery alone drives completion."""
    _, packets = _coded_packets(64, batch_size=64, packet_size=0, seed=11)
    decoder = make_decoder(batch_size=64, packet_size=0)
    verdicts = [decoder.add_packet(packet) for packet in packets]
    assert all(verdicts)
    assert decoder.is_complete
    assert decoder.decode().shape == (64, 0)
    # The coefficient matrix still fully reduced to the identity.
    np.testing.assert_array_equal(decoder.buffer.coefficient_matrix(),
                                  np.eye(64, dtype=np.uint8))


@FORWARDER
def test_forwarder_precodes_rank_deficient_buffer(make_forwarder):
    """Pre-coding from r < K innovative packets stays in the heard subspace."""
    batch, packets = _coded_packets(K // 4)
    forwarder = make_forwarder(
        batch_size=K, packet_size=PACKET_SIZE,
        stream=CoefficientStream(np.random.default_rng(23)))
    for coded in packets:
        forwarder.add_packet(coded)
    assert forwarder.buffer.rank == len(packets)

    recoded = forwarder.next_packet()
    heard = forwarder.buffer.coefficient_matrix()
    vector = np.frombuffer(recoded.code_vector, dtype=np.uint8)
    stacked = np.vstack([heard, vector])
    assert matrix_rank(stacked) == len(packets)  # no rank inflation
    assert vector.any()

    # The payload (combined through the deferred transform) is the one the
    # code vector promises over the natives.  The 64-byte rows are built by
    # the MUL-table gather; the stack, the other formulation, checks them.
    np.testing.assert_array_equal(
        recoded.payload,
        gf_matmul(vector[None, :], batch.payloads)[0])


def test_full_batch_matches_inversion_reference():
    """The incremental decode equals the paper's explicit-inversion decode."""
    batch, packets = _coded_packets(K)
    decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
    for packet in packets:
        decoder.add_packet(packet)
    incremental = decoder.decode()
    np.testing.assert_array_equal(incremental, decode_by_inversion(packets))
    np.testing.assert_array_equal(incremental, batch.payloads)
