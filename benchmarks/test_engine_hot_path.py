"""Engine hot-path floor: the 200-node scale preset under an absolute ceiling.

The ``large_mesh_200`` scale preset completes a MORE transfer, delivers
every packet, and stays under a generous absolute wall-clock ceiling.  The
normalised end-to-end floors live in ``BENCHMARK.json`` (``python3 -m
bench``: ``norm_cost`` per workload); bit-identity of the hot paths is
tier-1 territory (``tests/sim/test_engine_differential.py`` against the
committed golden traces).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.runner import run_single_flow
from repro.scenarios import build_topology, get_preset

pytestmark = pytest.mark.perf_strict

#: Generous ceiling for one MORE flow on the 200-node mesh (measured ~0.3 s).
LARGE_MESH_WALL_CEILING = 5.0


def test_large_mesh_200_completes_under_ceiling():
    """The 200-node scale preset finishes a MORE transfer within the floor."""
    spec = get_preset("large_mesh_200")
    topology = build_topology(spec.topology)
    source, destination = spec.workload.params["pairs"][0]
    config = spec.run_config(seed=spec.seeds[0])

    best = float("inf")
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = run_single_flow(topology, "MORE", source, destination,
                                 config=config)
        best = min(best, time.perf_counter() - start)
    assert result.completed, "large_mesh_200 MORE transfer did not complete"
    assert result.delivered_packets == config.total_packets
    assert best < LARGE_MESH_WALL_CEILING, (
        f"large_mesh_200 took {best:.2f}s (ceiling {LARGE_MESH_WALL_CEILING}s)")
