"""Workload generators: which source-destination pairs each experiment uses.

The paper's evaluation selects

* random source-destination pairs across the testbed (Figs 4-2, 4-3, 4-6,
  4-7),
* flows with 4-hop best paths whose first and last hop can transmit
  concurrently — the spatial-reuse scenario (Fig 4-4),
* sets of concurrent flows with random endpoints (Fig 4-5).

These helpers reproduce those selections on an arbitrary topology.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.etx import best_path, etx_to_destination, hop_count
from repro.sim.medium import sense_row
from repro.topology.graph import Topology


def reachable_pairs(topology: Topology, min_hops: int = 1) -> list[tuple[int, int]]:
    """All ordered pairs with a usable best path of at least ``min_hops`` hops."""
    pairs = []
    for destination in range(topology.node_count):
        distances = etx_to_destination(topology, destination)
        for source in range(topology.node_count):
            if source == destination or math.isinf(distances[source]):
                continue
            if min_hops <= 1:
                pairs.append((source, destination))
                continue
            if hop_count(topology, source, destination) >= min_hops:
                pairs.append((source, destination))
    return pairs


def random_pairs(topology: Topology, count: int, seed: int = 0,
                 min_hops: int = 1) -> list[tuple[int, int]]:
    """Select ``count`` random source-destination pairs (with replacement only
    if fewer distinct pairs exist)."""
    rng = np.random.default_rng(seed)
    candidates = reachable_pairs(topology, min_hops=min_hops)
    if not candidates:
        raise ValueError("topology has no reachable pairs with the requested hop count")
    if count <= len(candidates):
        indices = rng.choice(len(candidates), size=count, replace=False)
    else:
        indices = rng.choice(len(candidates), size=count, replace=True)
    return [candidates[int(i)] for i in indices]


def spatial_reuse_pairs(topology: Topology, count: int, seed: int = 0,
                        path_hops: int = 4) -> list[tuple[int, int]]:
    """Pairs whose best path has ``path_hops`` hops and whose first and last
    hop transmitters can transmit concurrently (Fig 4-4's selection).

    The first-hop transmitter is the source; the last-hop transmitter is the
    next-to-last node of the best path.  Concurrency requires that the two
    cannot carrier-sense each other, decided by the medium's own rule
    (:func:`repro.sim.medium.sense_row`).
    """
    rng = np.random.default_rng(seed)
    candidates = []
    sensed_by: dict[int, np.ndarray] = {}  # one sense row per source
    for source, destination in reachable_pairs(topology, min_hops=path_hops):
        try:
            path = best_path(topology, source, destination)
        except ValueError:
            continue
        if len(path) - 1 != path_hops:
            continue
        if source not in sensed_by:
            sensed_by[source] = sense_row(topology, source)
        if sensed_by[source][path[-2]]:
            continue
        candidates.append((source, destination))
    if not candidates:
        return []
    if count >= len(candidates):
        return candidates
    indices = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in indices]


def multiflow_sets(topology: Topology, flows_per_set: int, set_count: int,
                   seed: int = 0) -> list[list[tuple[int, int]]]:
    """Random sets of concurrent flows (Fig 4-5: 40 runs per flow count)."""
    rng = np.random.default_rng(seed)
    candidates = reachable_pairs(topology)
    if len(candidates) < flows_per_set:
        raise ValueError("not enough reachable pairs for the requested flow count")
    sets = []
    for _ in range(set_count):
        indices = rng.choice(len(candidates), size=flows_per_set, replace=False)
        sets.append([candidates[int(i)] for i in indices])
    return sets

