"""Row-based ETX / EOTX against the dense formulations they replaced.

``repro.metrics.etx`` relaxes per-node in-neighbour rows
(:func:`~repro.metrics.etx.link_rows`) and reads paths off a next-hop vector;
``repro.metrics.eotx.eotx_dijkstra`` updates only the senders that reach the
node it closes.  The references below are the implementations they replaced —
the N×N ``1 / delivery`` cost matrix with the ``excluded``-mask path
reconstruction, and the scan of every open node per closed node — kept
verbatim as oracles: distances, paths and hop counts must be equal bit for
bit, on meshes with ties, asymmetric links and links at or below
:data:`~repro.metrics.etx.LINK_THRESHOLD` that disconnect nodes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.credits import forwarding_plan
from repro.metrics.eotx import eotx_bellman_ford, eotx_dijkstra
from repro.metrics.etx import (
    best_path,
    etx_to_destination,
    hop_count,
    LINK_THRESHOLD,
    link_etx,
    link_rows,
)
from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import grid, random_geometric
from repro.topology.graph import Topology

# --------------------------------------------------------------------------- #
# The replaced implementations, verbatim
# --------------------------------------------------------------------------- #


def _link_cost_matrix(topology, ack_aware):
    delivery = topology.delivery_matrix()
    usable = delivery > LINK_THRESHOLD
    if ack_aware:
        usable &= usable.T
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = 1.0 / (delivery * delivery.T)
    else:
        with np.errstate(divide="ignore"):
            cost = 1.0 / delivery
    return np.where(usable, cost, math.inf)


def reference_etx_to_destination(topology, destination, ack_aware=False, cost_matrix=None):
    count = topology.node_count
    cost = cost_matrix if cost_matrix is not None \
        else _link_cost_matrix(topology, ack_aware)
    distances = np.full(count, math.inf)
    distances[destination] = 0.0
    heap = [(0.0, destination)]
    visited = np.zeros(count, dtype=bool)
    while heap:
        distance, node = heapq.heappop(heap)
        if visited[node]:
            continue
        visited[node] = True
        candidates = distance + cost[:, node]
        improved = np.nonzero((candidates < distances) & ~visited)[0]
        if improved.size:
            distances[improved] = candidates[improved]
            for neighbor in improved:
                heapq.heappush(heap, (float(candidates[neighbor]), int(neighbor)))
    return distances


def reference_best_path(topology, source, destination, ack_aware=False):
    cost = _link_cost_matrix(topology, ack_aware)
    distances = reference_etx_to_destination(topology, destination, ack_aware=ack_aware,
                                             cost_matrix=cost)
    if math.isinf(distances[source]):
        raise ValueError(f"no usable path from {source} to {destination}")
    count = topology.node_count
    path = [source]
    current = source
    excluded = np.zeros(count, dtype=bool)
    excluded[source] = True
    while current != destination:
        candidates = cost[current] + distances
        candidates[excluded] = math.inf
        best_next = int(np.argmin(candidates))
        if math.isinf(candidates[best_next]):
            raise ValueError(f"path reconstruction stuck at node {current}")
        path.append(best_next)
        excluded[best_next] = True
        current = best_next
    return path


def reference_eotx_dijkstra(topology, destination):
    delivery = topology.delivery_matrix()
    delivery[delivery <= LINK_THRESHOLD] = 0.0
    count = topology.node_count
    d = np.full(count, math.inf)
    T = np.ones(count)
    P = np.ones(count)
    d[destination] = 0.0
    open_nodes = set(range(count))
    heap = [(0.0, destination)]
    closed = np.zeros(count, dtype=bool)
    while heap:
        cost, node = heapq.heappop(heap)
        if closed[node] or cost > d[node]:
            continue
        closed[node] = True
        open_nodes.discard(node)
        for i in list(open_nodes):
            p = delivery[i, node]
            if p <= 0.0:
                continue
            T[i] += p * P[i] * d[node]
            P[i] *= 1.0 - p
            if P[i] < 1.0:
                d[i] = T[i] / (1.0 - P[i])
                heapq.heappush(heap, (float(d[i]), i))
    return d


# --------------------------------------------------------------------------- #
# Meshes: random asymmetric ones, and grids whose equal links are all ties
# --------------------------------------------------------------------------- #

#: Few distinct link qualities, so equal-cost paths are common; the first
#: four are unusable (at or below the cut), so some nodes are disconnected.
_LEVELS = (0.0, 0.0, 0.04, LINK_THRESHOLD, 0.25, 0.5, 0.5, 1.0)


@st.composite
def meshes(draw) -> Topology:
    if draw(st.booleans()):
        return grid(draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                    link_delivery=draw(st.sampled_from((0.5, 0.7, 1.0))),
                    diagonal_delivery=draw(st.sampled_from((0.0, 0.3, 0.5))))
    count = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrix = rng.choice(_LEVELS, size=(count, count))
    else:
        matrix = rng.random((count, count)) * (rng.random((count, count)) < 0.6)
    return Topology(matrix)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


class TestRowsAgainstDenseReferences:
    @settings(max_examples=150, deadline=None)
    @given(meshes(), st.booleans())
    def test_link_rows_are_the_finite_entries_of_the_cost_matrix(self, topology, ack_aware):
        rows = link_rows(topology, ack_aware)
        dense = np.full((topology.node_count,) * 2, math.inf)
        for receiver in range(topology.node_count):
            row = slice(rows.indptr[receiver], rows.indptr[receiver + 1])
            assert np.all(np.diff(rows.senders[row]) > 0)
            dense[rows.senders[row], receiver] = rows.cost[row]
            for sender, delivery, cost in zip(rows.senders[row], rows.delivery[row],
                                              rows.cost[row]):
                assert delivery == topology.delivery(sender, receiver)
                assert cost == link_etx(topology, sender, receiver, ack_aware)
        assert _same_bits(dense, _link_cost_matrix(topology, ack_aware))

    @settings(max_examples=150, deadline=None)
    @given(meshes(), st.booleans())
    def test_etx_distances_paths_and_hops(self, topology, ack_aware):
        for destination in range(topology.node_count):
            expected = reference_etx_to_destination(topology, destination, ack_aware)
            assert _same_bits(etx_to_destination(topology, destination, ack_aware),
                              expected)
            for source in range(topology.node_count):
                if math.isinf(expected[source]):
                    with pytest.raises(ValueError, match="no usable path"):
                        best_path(topology, source, destination, ack_aware)
                    continue
                path = reference_best_path(topology, source, destination, ack_aware)
                assert best_path(topology, source, destination, ack_aware) == path
                assert hop_count(topology, source, destination,
                                 ack_aware) == len(path) - 1

    @settings(max_examples=150, deadline=None)
    @given(meshes())
    def test_eotx_dijkstra(self, topology):
        for destination in range(topology.node_count):
            costs = eotx_dijkstra(topology, destination)
            assert _same_bits(costs, reference_eotx_dijkstra(topology, destination))
            relaxed = eotx_bellman_ford(topology, destination)
            assert np.allclose(np.nan_to_num(costs, posinf=1e18),
                               np.nan_to_num(relaxed, posinf=1e18), rtol=1e-7, atol=1e-9)


def test_kilonode_plan_is_the_one_the_dense_tables_gave():
    """The bench's 1000-node pair, capped at 10 relays: sha256 of the plan's
    participants and credits as computed before the tables became rows."""
    control = probe_estimated_topology(
        random_geometric(node_count=1000, area=940.0, seed=21), probe_count=0)
    expected = {
        "etx": "b6977b7cd3c8509a607942ef8bf24bf2c1966b65eaff44747ba33cf2317b6bda",
        "eotx": "e0230ff46fee4426aa72b68f879716c32ce08f50503cd0ccd5dbd1e836766eae",
    }
    for metric, digest in expected.items():
        plan = forwarding_plan(control, 441, 0, metric=metric, max_forwarders=10)
        sha = hashlib.sha256(json.dumps(plan.participants).encode())
        sha.update(plan.tx_credit.tobytes())
        assert sha.hexdigest() == digest
    assert best_path(control, 0, 441) == [0, 939, 844, 441]
