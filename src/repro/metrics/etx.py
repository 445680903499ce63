"""The ETX routing metric (De Couto et al.) used by Srcr, ExOR and MORE.

ETX of a link is the expected number of transmissions to get a frame across
it; ETX of a path is the sum over its links; ETX of a *node* (with respect
to a destination) is the ETX of its best path to that destination.  MORE and
ExOR use node ETX to order forwarders ("closer to the destination" means
lower ETX, Table 3.1), and Srcr uses path ETX to pick routes.

Two flavours are supported:

* ``ack_aware=False`` (default): link ETX = 1 / p_forward, as used in the
  paper's examples and in the Chapter 3/5 analysis;
* ``ack_aware=True``: link ETX = 1 / (p_forward * p_reverse), the original
  ETX definition that also charges for lost link-layer ACKs.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.topology.graph import Topology

#: Links with delivery probability below this are treated as unusable;
#: otherwise a 1% link would dominate every metric with an ETX of 100+.
DEFAULT_LINK_THRESHOLD = 0.05


def link_etx(topology: Topology, sender: int, receiver: int, ack_aware: bool = False,
             threshold: float = DEFAULT_LINK_THRESHOLD) -> float:
    """ETX of the directed link ``sender -> receiver`` (inf if unusable)."""
    forward = topology.delivery(sender, receiver)
    if forward <= threshold:
        return math.inf
    if ack_aware:
        reverse = topology.delivery(receiver, sender)
        if reverse <= threshold:
            return math.inf
        return 1.0 / (forward * reverse)
    return 1.0 / forward


def _link_cost_matrix(topology: Topology, ack_aware: bool,
                      threshold: float) -> np.ndarray:
    """``cost[s, r]`` = ETX of the directed link ``s -> r`` (inf if unusable).

    The vectorized form of :func:`link_etx` over the whole mesh — identical
    arithmetic (``1 / p`` rsp. ``1 / (p_fwd * p_rev)``), so every matrix
    entry is bit-equal to the scalar call.
    """
    delivery = topology.delivery_view()
    usable = delivery > threshold
    if ack_aware:
        usable &= usable.T
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = 1.0 / (delivery * delivery.T)
    else:
        with np.errstate(divide="ignore"):
            cost = 1.0 / delivery
    return np.where(usable, cost, math.inf)


def etx_to_destination(topology: Topology, destination: int, ack_aware: bool = False,
                       threshold: float = DEFAULT_LINK_THRESHOLD,
                       cost_matrix: np.ndarray | None = None) -> np.ndarray:
    """Best-path ETX from every node to ``destination`` (Dijkstra).

    The relaxation step is vectorized: settling a node relaxes every
    in-neighbour with one array operation instead of a per-link python
    loop, which is what makes control-plane setup on 200-node meshes
    affordable.  Distances are identical to the per-link formulation —
    every candidate is the same ``settled + 1/p`` sum, and Dijkstra's final
    distances do not depend on tie-breaking among equal keys.

    Args:
        cost_matrix: optional precomputed :func:`_link_cost_matrix` (must
            match ``ack_aware``/``threshold``); callers that run several
            queries on one topology pass it to skip the O(n^2) rebuild.

    Returns:
        A vector ``d`` with ``d[destination] == 0`` and ``d[i] == inf`` for
        nodes with no usable path.
    """
    count = topology.node_count
    cost = cost_matrix if cost_matrix is not None \
        else _link_cost_matrix(topology, ack_aware, threshold)
    distances = np.full(count, math.inf)
    distances[destination] = 0.0
    heap: list[tuple[float, int]] = [(0.0, destination)]
    visited = np.zeros(count, dtype=bool)
    while heap:
        distance, node = heapq.heappop(heap)
        if visited[node]:
            continue
        visited[node] = True
        # Relax every link neighbor -> node at once (distances are toward
        # the destination).
        candidates = distance + cost[:, node]
        improved = np.nonzero((candidates < distances) & ~visited)[0]
        if improved.size:
            distances[improved] = candidates[improved]
            for neighbor in improved:
                heapq.heappush(heap, (float(candidates[neighbor]), int(neighbor)))
    return distances


def best_path(topology: Topology, source: int, destination: int, ack_aware: bool = False,
              threshold: float = DEFAULT_LINK_THRESHOLD) -> list[int]:
    """The minimum-ETX path from ``source`` to ``destination``.

    Returns:
        The node list ``[source, ..., destination]``.

    Raises:
        ValueError: if no usable path exists.
    """
    cost = _link_cost_matrix(topology, ack_aware, threshold)
    distances = etx_to_destination(topology, destination, ack_aware=ack_aware,
                                   threshold=threshold, cost_matrix=cost)
    if math.isinf(distances[source]):
        raise ValueError(f"no usable path from {source} to {destination}")
    count = topology.node_count
    path = [source]
    current = source
    excluded = np.zeros(count, dtype=bool)
    excluded[source] = True
    while current != destination:
        # One vectorized scan per hop; argmin picks the lowest-index
        # minimum, matching the strict-improvement scalar scan.
        candidates = cost[current] + distances
        candidates[excluded] = math.inf
        best_next = int(np.argmin(candidates))
        if math.isinf(candidates[best_next]):
            raise ValueError(f"path reconstruction stuck at node {current}")
        path.append(best_next)
        excluded[best_next] = True
        current = best_next
    return path


def path_etx(topology: Topology, path: list[int], ack_aware: bool = False,
             threshold: float = DEFAULT_LINK_THRESHOLD) -> float:
    """Total ETX of an explicit path (sum of its link ETXs)."""
    total = 0.0
    for sender, receiver in zip(path[:-1], path[1:]):
        total += link_etx(topology, sender, receiver, ack_aware=ack_aware, threshold=threshold)
    return total


def hop_count(topology: Topology, source: int, destination: int,
              ack_aware: bool = False, threshold: float = DEFAULT_LINK_THRESHOLD) -> int:
    """Number of hops on the best-ETX path between two nodes."""
    return len(best_path(topology, source, destination, ack_aware=ack_aware,
                         threshold=threshold)) - 1


def etx_order(topology: Topology, destination: int, ack_aware: bool = False,
              threshold: float = DEFAULT_LINK_THRESHOLD) -> list[int]:
    """Nodes sorted by increasing ETX distance to ``destination``.

    Unreachable nodes are omitted.  This ordering defines "closer to the
    destination" for MORE and ExOR forwarder lists.
    """
    distances = etx_to_destination(topology, destination, ack_aware=ack_aware,
                                   threshold=threshold)
    reachable = [i for i in range(topology.node_count) if not math.isinf(distances[i])]
    return sorted(reachable, key=lambda i: (distances[i], i))
