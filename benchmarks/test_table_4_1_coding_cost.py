"""Table 4.1: what its timed loops do, checked without a clock.

Paper numbers (Celeron 800 MHz, K=32, 1500 B packets): independence check
10 us, coding at the source 270 us, decoding 260 us.  The table is reported
by ``python -m repro figure table_4_1`` and is not gated here, because its
numbers are wall-clock; the layers behind it are measured, normalised, by
``python3 -m bench --trace 1`` (``coding.*_share``, ``gf.mb_per_cu``).

What is checked is that the table measures the right work: a coded packet
builds its payload when it is first read, so the coding rows must read every
packet they time (counted, not timed), and the coding, independence check,
decode and re-code each row times give the right answer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.experiments import figures
from repro.gf.arithmetic import CoefficientStream
from repro.gf.kernels import gf_vecmat

K = 32
PACKET_SIZE = 1500


@pytest.fixture(scope="module")
def batch():
    return make_batch(batch_size=K, packet_size=PACKET_SIZE, rng=np.random.default_rng(0))


def test_coding_at_source(batch):
    """The "coding at the source" row's work: one packet, built once on first read."""
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(1)))
    packet = encoder.next_packet()
    assert encoder.payloads_built == 0
    expected = gf_vecmat(np.frombuffer(packet.code_vector, dtype=np.uint8),
                         batch.payloads)
    assert np.array_equal(packet.payload, expected)
    assert np.array_equal(packet.payload, expected)
    assert encoder.payloads_built == 1


def test_batched_coding_at_source(batch):
    """One kernel call codes a whole batch: K packets the destination decodes."""
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(1)))
    packets = encoder.next_packets(K)
    assert len(packets) == K == encoder.payloads_built
    decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
    for packet in packets:
        decoder.add_packet(packet)
    assert np.array_equal(decoder.decode(), batch.payloads)


def test_independence_check(batch):
    """The row's probe answers from code vectors alone (Section 3.2.3(b))."""
    packets = SourceEncoder(batch, CoefficientStream(np.random.default_rng(2))).next_packets(K)
    buffer = BatchBuffer(K, 0)
    for packet in packets[: K // 2]:
        buffer.add(CodedPacket(packet.code_vector, b""))
    assert buffer.rank == K // 2
    assert buffer.is_innovative(packets[-1].code_vector)
    assert not buffer.is_innovative(packets[0].code_vector)
    combination = gf_vecmat(np.arange(1, K // 2 + 1, dtype=np.uint8),
                            np.stack([np.frombuffer(packet.code_vector, dtype=np.uint8)
                                      for packet in packets[: K // 2]]))
    assert not buffer.is_innovative(combination.tobytes())
    assert buffer.rank == K // 2


def test_decoding_per_packet(batch):
    """The "decoding" row's work — K inserts and the decode — gives the natives."""
    packets = SourceEncoder(batch, CoefficientStream(np.random.default_rng(3))).next_packets(K)
    decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
    for packet in packets:
        decoder.add_packet(packet)
    assert np.array_equal(decoder.decode(), batch.payloads)


def test_recode_at_forwarder(batch):
    """The "re-coding" row's work — per arrival one insert, one hand-out and
    one pre-code (Section 3.2.3(c)) — sends combinations of the batch."""
    packets = SourceEncoder(batch, CoefficientStream(np.random.default_rng(4))).next_packets(K)
    forwarder = ForwarderEncoder(K, PACKET_SIZE, CoefficientStream(np.random.default_rng(5)))
    recoded = [forwarder.next_packet() for packet in packets if forwarder.add_packet(packet)]
    for packet in recoded:
        packet.payload
    assert len(recoded) == K == forwarder.payloads_built
    decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
    for packet in packets:
        decoder.add_packet(packet)
    natives = decoder.decode()
    for packet in recoded[:: K // 4]:
        assert np.array_equal(gf_vecmat(np.frombuffer(packet.code_vector, dtype=np.uint8),
                                        natives), packet.payload)


def test_table_4_1_reads_every_payload_it_times(monkeypatch):
    """The coding rows time the payload product, not the code-vector draw alone.

    Counted on the encoders ``table_4_1`` builds: one payload built per
    packet handed out inside the timed loops — ``rounds x iterations`` by
    the source's ``next_packet`` (what its eager ``next_packets`` builds for
    the other rows is set aside) and ``rounds x K`` over the forwarders.  A
    loop that dropped ``.payload`` unread builds none.
    """
    sources, forwarders = [], []

    class Source(SourceEncoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.eager = 0
            sources.append(self)

        def next_packets(self, count):
            self.eager += count
            return super().next_packets(count)

    class Forwarder(ForwarderEncoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            forwarders.append(self)

    monkeypatch.setattr(figures, "SourceEncoder", Source)
    monkeypatch.setattr(figures, "ForwarderEncoder", Forwarder)
    rounds, iterations = 3, 10
    result = figures.table_4_1(iterations=iterations, rounds=rounds)

    (source,) = sources
    assert source.payloads_built - source.eager == rounds * iterations
    assert len(forwarders) == rounds
    assert sum(forwarder.payloads_built for forwarder in forwarders) == rounds * K
    for name in ("independence_check_us", "coding_at_source_us", "decoding_us",
                 "recoding_at_forwarder_us", "throughput_mbps_bound"):
        assert math.isfinite(result.summary[name]) and result.summary[name] > 0.0, name
    assert "Table 4.1" in result.report
