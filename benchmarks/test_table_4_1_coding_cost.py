"""Table 4.1: computational cost of MORE's packet operations.

Paper numbers (Celeron 800 MHz, K=32, 1500 B packets): independence check
10 us, coding at the source 270 us, decoding 260 us, implying a 44 Mb/s
coding-throughput bound.  Absolute times differ on modern hardware; the
*structure* — coding and decoding are comparable and dominate, the
independence check is roughly an order of magnitude cheaper — must hold.

All quantities are measured best-of-N (see
:func:`repro.experiments.figures.table_4_1`), and the hard threshold
assertions on timing ratios are opt-in via ``--perf-strict``: a loaded
machine can stretch any single measurement, so tier-1 only checks that the
table is well-formed while the strict variant enforces the paper's
structural claims.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.packet import make_batch
from repro.experiments.figures import table_4_1

K = 32
PACKET_SIZE = 1500


@pytest.fixture(scope="module")
def batch():
    return make_batch(batch_size=K, packet_size=PACKET_SIZE, rng=np.random.default_rng(0))


def test_coding_at_source(benchmark, batch):
    """Cost of producing one coded packet at the source (paper: 270 us)."""
    encoder = SourceEncoder(batch, np.random.default_rng(1))
    benchmark(encoder.next_packet)


def test_batched_coding_at_source(benchmark, batch):
    """Per-packet cost when the source codes a whole batch in one kernel call."""
    encoder = SourceEncoder(batch, np.random.default_rng(1))
    result = benchmark(encoder.next_packets, K)
    assert len(result) == K


def test_independence_check(benchmark, batch):
    """Cost of the linear-independence check per packet (paper: 10 us)."""
    encoder = SourceEncoder(batch, np.random.default_rng(2))
    buffer = BatchBuffer(K, PACKET_SIZE, track_payloads=False)
    packets = encoder.next_packets(K)
    for packet in packets[: K // 2]:
        buffer.add(packet)
    probe = packets[-1].code_vector

    benchmark(buffer.is_innovative, probe)


def test_decoding_per_packet(benchmark, batch):
    """Per-packet cost of the incremental decoder at the destination."""
    encoder = SourceEncoder(batch, np.random.default_rng(3))
    packets = encoder.next_packets(K)

    def decode_full_batch():
        decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
        for packet in packets:
            decoder.add_packet(packet)
        return decoder

    result = benchmark(decode_full_batch)
    assert result.rank == K


def test_table_4_1_report(benchmark):
    """Regenerate the whole table and check it is well-formed.

    Only load-insensitive facts are asserted here; the timing-ratio
    thresholds live in :func:`test_table_4_1_structural_thresholds` behind
    ``--perf-strict``.
    """
    result = benchmark.pedantic(table_4_1, kwargs={"iterations": 20}, rounds=1,
                                iterations=1, warmup_rounds=0)
    # Printed, never saved: wall-clock microseconds are not a golden result.
    print("\n" + result.report)
    summary = result.summary
    for name in ("independence_check_us", "coding_at_source_us", "decoding_us",
                 "throughput_mbps_bound"):
        assert math.isfinite(summary[name]) and summary[name] > 0.0, name
    assert "Table 4.1" in result.report


@pytest.mark.perf_strict
def test_table_4_1_structural_thresholds():
    """The paper's structural claims as hard ratios (opt-in, can flake).

    Best-of-N measurement makes these robust on an idle machine, but a
    sufficiently loaded box can still stretch one quantity more than
    another, so they stay out of tier-1.
    """
    summary = table_4_1(iterations=20).summary
    # The independence check remains the cheapest operation (the paper's
    # Section 3.2.3(b) point: forwarders never touch payload bytes).
    assert summary["independence_check_us"] < summary["coding_at_source_us"]
    assert summary["independence_check_us"] < summary["decoding_us"]
    # Coding and decoding stay within a couple of orders of magnitude.  The
    # vectorized source encoder (cached shifted-row stack) now undercuts
    # the per-arrival Gauss-Jordan decode instead of matching it, so the
    # paper's ratio-of-about-one became a ratio-below-one.
    ratio = summary["coding_at_source_us"] / summary["decoding_us"]
    assert 0.01 < ratio < 5.0
    # The implied coding-throughput bound comfortably exceeds the paper's
    # 44 Mb/s on modern hardware (it only needs to beat the radio).
    assert summary["throughput_mbps_bound"] > 44.0
