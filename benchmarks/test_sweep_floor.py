"""Sweep-orchestrator and recode performance floors: this PR's perf claims.

Two wall-clock contracts, both behind ``--perf-strict`` like every timing
threshold in this suite:

* the orchestrator replays the many-small-sweeps workload
  (:func:`bench_sweep_specs` below) from a warm content-addressed store
  within a fixed wall budget, recomputing nothing;
* the forwarder recode path (``combine_rows``: one fused coefficient
  product instead of materialising K recode rows per emitted packet) at
  least **1.5x** the ``forwarder_recode_pps`` one machine measured before
  the fused path landed (the constant below).

Bit-identity of the fused recode path and of pooled-vs-serial sweeps is
*not* a timing property and is asserted unconditionally in
``tests/coding/`` and ``tests/scenarios/``.
"""

from __future__ import annotations

import gc
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import make_batch
from repro.experiments.orchestrator import run_sweep, shutdown_shared_pools
from repro.gf.arithmetic import CoefficientStream
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec

K = 32
PACKET_SIZE = 1500
#: Forwarder recode packets/s before the fused ``combine_rows`` path, as
#: measured once by the since-deleted stage-baseline script (its v4 run).
RECODE_BASELINE_PPS = 7352.648894919501
#: The multiple of the v4 rate the recode path claims.
FLOOR = 1.5
#: Warm-cache replay of all BENCH_CELLS cells must finish within this
#: budget — pure store reads, measured at ~2 orders of magnitude under it.
WARM_REPLAY_BUDGET_S = 2.0

# The sweep workload is shaped to exercise the orchestrator itself: a
# parameter study is many small successive sweeps, each of a few sub-second
# cells (gap mode on a short lossy chain), rather than one big sweep whose
# cell cost would drown the dispatch path.
#: Successive sweeps per measured round.
BENCH_SWEEPS = 16
#: Seeds (= cells: one protocol, no sweep axes) per sweep.
BENCH_SEEDS_PER_SWEEP = 8
#: Worker processes the sweeps are offered.
BENCH_WORKERS = 8
#: Total cells per measured round.
BENCH_CELLS = BENCH_SWEEPS * BENCH_SEEDS_PER_SWEEP


def bench_sweep_specs() -> list[ScenarioSpec]:
    """16 sweeps x 8 gap-mode chain cells; seeds are disjoint across sweeps,
    so a populated store holds :data:`BENCH_CELLS` distinct cells."""
    return [
        ScenarioSpec(
            name="bench_sweep",
            topology=TopologySpec("chain", {"hops": 4, "link_delivery": 0.7,
                                            "skip_delivery": 0.25}),
            workload=WorkloadSpec("explicit", {"pairs": [[0, 4]]}),
            protocols=("MORE",),
            mode="gap",
            seeds=tuple(range(100 * index + 1,
                              100 * index + 1 + BENCH_SEEDS_PER_SWEEP)),
        )
        for index in range(BENCH_SWEEPS)
    ]


def _timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


@pytest.mark.perf_strict
def test_warm_replay_recomputes_nothing_within_budget():
    """A populated store replays the whole workload as hits, fast."""
    specs = bench_sweep_specs()
    with tempfile.TemporaryDirectory() as tmp:
        results_dir = Path(tmp)
        try:
            for spec in specs:  # populate outside the timing
                run_sweep(spec, workers=BENCH_WORKERS, results_dir=results_dir)
            replays: list = []
            elapsed = _timed(lambda: replays.extend(
                run_sweep(spec, workers=BENCH_WORKERS, results_dir=results_dir)
                for spec in specs))
        finally:
            shutdown_shared_pools()
    assert sum(result.computed_cells for result in replays) == 0
    assert sum(result.cached_cells for result in replays) == BENCH_CELLS
    assert elapsed < WARM_REPLAY_BUDGET_S, (
        f"warm replay took {elapsed:.3f}s, budget {WARM_REPLAY_BUDGET_S}s")


@pytest.mark.perf_strict
def test_forwarder_recode_floor_vs_v4_baseline():
    """The fused combine_rows recode path >= 1.5x the committed v4 rate."""
    batch = make_batch(batch_size=K, packet_size=PACKET_SIZE,
                       rng=np.random.default_rng(1))
    packets = SourceEncoder(
        batch, CoefficientStream(np.random.default_rng(2))).next_packets(K)

    def recode_batch() -> None:
        forwarder = ForwarderEncoder(
            batch_size=K, packet_size=PACKET_SIZE,
            stream=CoefficientStream(np.random.default_rng(3)))
        for coded in packets[: K // 2]:
            forwarder.add_packet(coded)
        for _ in range(K // 2):
            forwarder.next_packet().payload  # built on first read: time it

    # Best of many short rounds: each is short enough for scheduler noise.
    gc.collect()
    recode_s = min(_timed(recode_batch) for _ in range(15)) / K
    pps = 1.0 / recode_s
    assert pps >= FLOOR * RECODE_BASELINE_PPS, (
        f"forwarder recode {pps:.0f} pps under "
        f"{FLOOR}x v4 baseline ({FLOOR * RECODE_BASELINE_PPS:.0f} pps)")
