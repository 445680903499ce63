"""The EOTX metric (Chapter 5): minimum expected opportunistic transmissions.

EOTX of a node ``s`` with respect to a destination ``t`` is the minimum
expected total number of transmissions (summed over all nodes) needed to
deliver one packet from ``s`` to ``t`` when forwarding follows the
opportunistic rule "of all successful recipients, only the cheapest
forwards".  Chapter 5 proves EOTX equals the optimum of the min-cost
information-flow LP, and gives three ways to compute it, all implemented
here:

* :func:`eotx_recursive` — the literal recursive definition (Eq. 5.14),
  enumerating reception subsets.  Exponential; used only for cross-checks on
  tiny topologies.
* :func:`eotx_bellman_ford` — Algorithms 3 + 4 (Recompute in a
  Bellman–Ford loop), O(n^3) worst case.
* :func:`eotx_dijkstra` — Algorithm 5, the O(n^2) Dijkstra-style algorithm
  for independent losses.  This is the production implementation.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.metrics.etx import LINK_THRESHOLD, link_rows
from repro.topology.graph import LinkView


def _usable_delivery(topology: LinkView) -> np.ndarray:
    """Delivery matrix with the unusable links (at most
    :data:`~repro.metrics.etx.LINK_THRESHOLD`) zeroed out: the dense form
    the oracles read."""
    delivery = topology.delivery_matrix()
    return np.where(delivery > LINK_THRESHOLD, delivery, 0.0)


def eotx_dijkstra(topology: LinkView, destination: int) -> np.ndarray:
    """EOTX of every node toward ``destination`` (Algorithm 5).

    The algorithm visits nodes in increasing cost order.  For every still
    open node ``i`` it maintains:

    * ``T[i]`` — the partial numerator ``1 + sum_k p_ik * P_k * d(k)`` over
      already-closed nodes ``k``;
    * ``P[i]`` — the probability that *none* of the closed nodes receives a
      transmission from ``i``.

    so that ``d(i) = T[i] / (1 - P[i])`` once all cheaper nodes are closed,
    which is exactly the closed form (5.15).  Closing a node updates the
    open nodes of its in-neighbour row (:func:`repro.metrics.etx.link_rows`)
    with one array operation each — the senders that can reach it, not
    every open node of the mesh.

    Returns:
        A read-only vector ``d`` with ``d[destination] == 0`` and ``inf``
        for nodes that cannot reach the destination at all, derived once per
        topology and destination
        (:meth:`repro.topology.graph.LinkView.derived`).
    """
    def derive() -> np.ndarray:
        rows = link_rows(topology)
        indptr = rows.indptr.tolist()
        count = topology.node_count
        d = np.full(count, math.inf)
        T = np.ones(count)
        P = np.ones(count)
        d[destination] = 0.0
        heap: list[tuple[float, int]] = [(0.0, destination)]
        closed = np.zeros(count, dtype=bool)
        while heap:
            cost, node = heapq.heappop(heap)
            if closed[node] or cost > d[node]:
                continue
            closed[node] = True
            row = slice(indptr[node], indptr[node + 1])
            still_open = ~closed[rows.senders[row]]
            senders = rows.senders[row][still_open]
            p = rows.delivery[row][still_open]
            T[senders] += p * P[senders] * d[node]
            P[senders] *= 1.0 - p
            senders = senders[P[senders] < 1.0]
            d[senders] = T[senders] / (1.0 - P[senders])
            for entry in zip(d[senders].tolist(), senders.tolist()):
                heapq.heappush(heap, entry)
        return d

    return topology.derived(("eotx", destination), derive)


def eotx_bellman_ford(topology: LinkView, destination: int) -> np.ndarray:
    """EOTX via the Bellman–Ford style relaxation (Algorithms 3 and 4),
    at most one round per node."""
    delivery = _usable_delivery(topology)
    count = topology.node_count
    d = np.full(count, math.inf)
    d[destination] = 0.0

    def recompute(node: int, costs: np.ndarray) -> float:
        """Procedure Recompute(i): closed form over nodes cheaper than d(i)."""
        order = sorted(range(count), key=lambda j: (costs[j], j))
        numerator = 1.0
        q_previous = 0.0
        for candidate in order:
            if candidate == node:
                continue
            if math.isinf(costs[candidate]):
                break
            p = delivery[node, candidate]
            # Admit the candidate only if its cost beats our current estimate
            # T / q (the "has better cost, admit as forwarder" rule of
            # Procedure Recompute); once a candidate fails this test every
            # later (costlier) one fails it too.
            if q_previous > 0.0 and numerator / q_previous <= costs[candidate]:
                break
            q_current = 1.0 - (1.0 - q_previous) * (1.0 - p)
            numerator += (q_current - q_previous) * costs[candidate]
            q_previous = q_current
        if q_previous <= 0.0:
            return math.inf
        return numerator / q_previous

    for _ in range(count):
        updated = d.copy()
        for node in range(count):
            if node == destination:
                continue
            updated[node] = recompute(node, d)
        if np.allclose(
            np.nan_to_num(updated, posinf=1e18), np.nan_to_num(d, posinf=1e18),
            rtol=1e-12, atol=1e-12
        ):
            d = updated
            break
        d = updated
    return d


def eotx_recursive(topology: LinkView, destination: int) -> np.ndarray:
    """EOTX by direct evaluation of the recursive definition (Eq. 5.14).

    Enumerates all reception subsets of each node's neighbourhood, so it is
    exponential in the maximum degree; intended for cross-validation on
    topologies with at most ~12 usable neighbours per node.
    """
    delivery = _usable_delivery(topology)
    count = topology.node_count
    # Process nodes in increasing cost order so every min over a reception
    # set only refers to already-final costs; we obtain that order from the
    # Dijkstra implementation and then recompute each cost from scratch via
    # subset enumeration, which keeps the check independent of (5.15).
    reference = eotx_dijkstra(topology, destination)
    order = sorted(range(count), key=lambda j: (reference[j], j))
    d = np.full(count, math.inf)
    d[destination] = 0.0
    for node in order:
        if node == destination or math.isinf(reference[node]):
            continue
        neighbors = [j for j in range(count) if delivery[node, j] > 0.0 and not math.isinf(d[j])]
        if not neighbors:
            continue
        if len(neighbors) > 16:
            raise ValueError(
                "eotx_recursive enumerates reception subsets and supports at most 16 "
                f"usable neighbours per node; node {node} has {len(neighbors)}"
            )
        expected_forward_cost = 0.0
        probability_someone_cheaper = 0.0
        for size in range(1, len(neighbors) + 1):
            for subset in itertools.combinations(neighbors, size):
                probability = 1.0
                for j in neighbors:
                    p = delivery[node, j]
                    probability *= p if j in subset else (1.0 - p)
                if probability == 0.0:
                    continue
                best = min(d[j] for j in subset)
                if best < math.inf:
                    expected_forward_cost += probability * best
                    probability_someone_cheaper += probability
        # Condition on at least one cheaper node receiving: the transmitter
        # itself "receives" its own packet, so failed rounds simply repeat.
        if probability_someone_cheaper <= 0.0:
            continue
        d[node] = (1.0 + expected_forward_cost) / probability_someone_cheaper
    return d


def eotx_order(topology: LinkView, destination: int) -> list[int]:
    """Nodes sorted by increasing EOTX toward ``destination`` (unreachable omitted)."""
    costs = eotx_dijkstra(topology, destination)
    reachable = [i for i in range(topology.node_count) if not math.isinf(costs[i])]
    return sorted(reachable, key=lambda i: (costs[i], i))
