"""The decode-path performance floor: the tentpole claim of the decode PR.

The deferred-transform coding buffer reworks the destination's hot loop —
Gauss–Jordan elimination over the (K, 2K) combined ops matrix per
insertion, one ``gf_matmul`` back-substitution at decode time — and the
claim it must keep is concrete: a full destination batch (K inserts +
``decode()``) at least **3x** faster than the ``destination_decode_pps``
one machine measured before the rework (the constant below).

Checked here, all behind ``--perf-strict`` like every wall-clock
threshold:

* the 3x floor against that baseline;
* the ``kilonode`` preset completing end-to-end through the real CLI —
  the 1000-node tier is only honest if it actually runs.

Bit-identity with the scalar oracle is *not* a timing property and is
asserted unconditionally in ``tests/coding/test_decode_properties.py``.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from repro.cli import main as repro_main
from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.packet import make_batch
from repro.gf.arithmetic import CoefficientStream

K = 32
PACKET_SIZE = 1500
ROUNDS = 25

#: Destination decode packets/s of the per-insert payload elimination
#: (insert loop only), as measured once by the since-deleted stage-baseline
#: script (its v3 run).
DECODE_BASELINE_PPS = 3790.919869913409


@pytest.fixture(scope="module")
def full_rank_packets():
    """K coded packets spanning a K-size batch (same seeds as the bench)."""
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(1))
    encoder = SourceEncoder(batch, CoefficientStream(np.random.default_rng(2)))
    return encoder.next_packets(K)


def _decode_seconds(packets) -> float:
    """Best-of-N wall clock for one full batch: K inserts + decode().

    Each round is only a few milliseconds, so when the rest of the
    benchmark suite has run first a single collector pause can swallow the
    whole measurement: GC is paused around the rounds (the heap left behind
    by earlier pytest-benchmark tests is otherwise scanned mid-round) and
    the round count is high enough that best-of rides out scheduler noise.
    """
    def once() -> float:
        decoder = BatchDecoder(batch_size=K, packet_size=PACKET_SIZE)
        start = time.perf_counter()
        for coded in packets:
            decoder.add_packet(coded)
        decoder.decode()
        return time.perf_counter() - start
    once()  # warm-up: table loads, allocator and cache priming
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return min(once() for _ in range(ROUNDS))
    finally:
        if gc_was_enabled:
            gc.enable()


@pytest.mark.perf_strict
def test_vectorized_decode_beats_committed_baseline_3x(full_rank_packets):
    """Insert+decode throughput >= 3x the committed v3 decode baseline."""
    elapsed = _decode_seconds(full_rank_packets)
    pps = K / elapsed
    print(f"\ndecode: {pps:,.0f} pps vs committed "
          f"{DECODE_BASELINE_PPS:,.0f} pps ({pps / DECODE_BASELINE_PPS:.2f}x)")
    assert pps >= 3.0 * DECODE_BASELINE_PPS


@pytest.mark.perf_strict
def test_kilonode_preset_completes_from_cli(capsys):
    """``repro run --preset kilonode`` finishes end-to-end (1000 nodes)."""
    exit_code = repro_main(["run", "--preset", "kilonode", "--no-cache"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "MORE" in out
