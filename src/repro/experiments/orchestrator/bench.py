"""The many-small-sweeps workload of the perf-strict floor in
``benchmarks/test_sweep_floor.py``.

The shape is chosen to exercise the orchestrator itself: a parameter
study is many small successive sweeps, and a fresh pool per sweep would
pay the fork/import tax over and over where the persistent pool pays it
once.  Hence: many sweeps, each of a few sub-second cells (gap mode on a
short lossy chain), rather than one big sweep whose cell cost would drown
the dispatch path.

Seeds are disjoint across sweeps so a results-dir'd run stores
:data:`BENCH_CELLS` distinct cells (the warm-replay measurement replays
all of them).
"""

from __future__ import annotations

from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec

#: Successive sweeps per measured round.
BENCH_SWEEPS = 16
#: Seeds (= cells: one protocol, no sweep axes) per sweep.
BENCH_SEEDS_PER_SWEEP = 8
#: Worker processes the sweeps are offered.
BENCH_WORKERS = 8
#: Total cells per measured round.
BENCH_CELLS = BENCH_SWEEPS * BENCH_SEEDS_PER_SWEEP


def bench_sweep_specs() -> list[ScenarioSpec]:
    """The benchmark's sweep list: 16 sweeps x 8 gap-mode chain cells."""
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
