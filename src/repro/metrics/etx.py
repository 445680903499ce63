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
from typing import NamedTuple

import numpy as np

from repro.topology.graph import LinkTable, LinkView

#: Links delivering at most this probability are unusable to every metric;
#: otherwise a 1% link would dominate every metric with an ETX of 100+.
LINK_THRESHOLD = 0.05


def link_etx(topology: LinkView, sender: int, receiver: int,
             ack_aware: bool = False) -> float:
    """ETX of the directed link ``sender -> receiver`` (inf if unusable)."""
    forward = topology.delivery(sender, receiver)
    if forward <= LINK_THRESHOLD:
        return math.inf
    if ack_aware:
        reverse = topology.delivery(receiver, sender)
        if reverse <= LINK_THRESHOLD:
            return math.inf
        return 1.0 / (forward * reverse)
    return 1.0 / forward


class LinkRows(NamedTuple):
    """The usable links of a mesh, grouped by receiver, with their costs.

    Row ``r`` — the links *into* ``r`` — is the slice
    ``indptr[r]:indptr[r + 1]`` of the three per-link arrays, senders in
    ascending order.  O(links), not N×N: what a Dijkstra toward a
    destination relaxes when it settles ``r``.

    Attributes:
        indptr: row boundaries, ``node_count + 1`` entries.
        senders: sending node of each link.
        delivery: forward delivery probability of each link.
        cost: link ETX — ``1 / p`` rsp. ``1 / (p_fwd * p_rev)``, the
            arithmetic of :func:`link_etx`, so bit-equal to the scalar call.
    """

    indptr: np.ndarray
    senders: np.ndarray
    delivery: np.ndarray
    cost: np.ndarray


def link_rows(topology: LinkView, ack_aware: bool = False) -> LinkRows:
    """The usable links of ``topology`` by receiver (derived once per topology).

    Read off the view's receiver-major index
    (:meth:`repro.topology.graph.LinkView.incoming`, which the medium's
    carrier-sense rule reads too): O(links), with no N×N mask and no sort.

    A link is usable when its delivery probability exceeds
    :data:`LINK_THRESHOLD` (in both directions if ``ack_aware``).
    """
    def derive() -> LinkRows:
        links, incoming = topology.link_table(), topology.incoming()
        delivery = links.delivery[incoming.links]
        usable = delivery > LINK_THRESHOLD
        if ack_aware:
            reverse = _reverse_delivery(links, topology.node_count)[incoming.links]
            usable &= reverse > LINK_THRESHOLD
        forward = delivery[usable]
        if ack_aware:
            # The product of two tiny probabilities can underflow to zero.
            with np.errstate(divide="ignore"):
                cost = 1.0 / (forward * reverse[usable])
        else:
            cost = 1.0 / forward
        indptr = np.concatenate(([0], np.cumsum(usable)))[incoming.indptr]
        return LinkRows(indptr, links.sender_of(incoming.links[usable]), forward, cost)

    return topology.derived(("link_rows", ack_aware), derive)


def _reverse_delivery(links: LinkTable, count: int) -> np.ndarray:
    """Delivery of each link's reverse direction, 0 where it has none."""
    if not links.receivers.size:
        return np.zeros(0)
    senders = links.senders()
    keys = senders * count + links.receivers  # ascending: the links are row-major
    wanted = links.receivers * count + senders
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[at] == wanted, links.delivery[at], 0.0)


def _routes_to(topology: LinkView, destination: int,
               ack_aware: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, next_hop)`` of every node toward ``destination`` (Dijkstra).

    Derived once per topology and destination.  Settling a node relaxes its
    in-neighbour row with one array operation, and every candidate is the
    ``settled + link cost`` sum of the per-link formulation, so the
    distances do not depend on tie-breaking among equal heap keys.

    ``next_hop[i]`` is ``argmin_j(cost[i, j] + distances[j])``, the lowest
    ``j`` on ties (``-1`` where there is none).  Every ``j`` attaining the
    minimum settles before ``i`` — link costs are at least 1, which is also
    why a settled node is never relaxed again — so the relaxations see all
    of them: the first sets the distance, a later one of equal cost takes
    over only if its index is lower.
    """
    def derive() -> tuple[np.ndarray, np.ndarray]:
        rows = link_rows(topology, ack_aware)
        indptr = rows.indptr.tolist()
        count = topology.node_count
        distances = np.full(count, math.inf)
        distances[destination] = 0.0
        next_hop = np.full(count, -1, dtype=np.intp)
        heap: list[tuple[float, int]] = [(0.0, destination)]
        while heap:
            distance, node = heapq.heappop(heap)
            if distance > distances[node]:
                continue  # superseded by a shorter entry for the same node
            row = slice(indptr[node], indptr[node + 1])
            senders = rows.senders[row]
            candidates = distance + rows.cost[row]
            known = distances[senders]
            shorter = candidates < known
            tied = (candidates == known) & (node < next_hop[senders])
            next_hop[senders[shorter | tied]] = node
            if shorter.any():
                senders, candidates = senders[shorter], candidates[shorter]
                distances[senders] = candidates
                for entry in zip(candidates.tolist(), senders.tolist()):
                    heapq.heappush(heap, entry)
        return distances, next_hop

    return topology.derived(("etx_routes", destination, ack_aware), derive)


def etx_to_destination(topology: LinkView, destination: int,
                       ack_aware: bool = False) -> np.ndarray:
    """Best-path ETX from every node to ``destination``.

    Returns:
        A read-only vector ``d`` with ``d[destination] == 0`` and
        ``d[i] == inf`` for nodes with no usable path, shared by every
        caller (:meth:`repro.topology.graph.LinkView.derived`).
    """
    return _routes_to(topology, destination, ack_aware)[0]


def best_path(topology: LinkView, source: int, destination: int,
              ack_aware: bool = False) -> list[int]:
    """The minimum-ETX path from ``source`` to ``destination``.

    Returns:
        The node list ``[source, ..., destination]`` (a new list every call).

    Raises:
        ValueError: if no usable path exists.
    """
    distances, next_hop = _routes_to(topology, destination, ack_aware)
    if math.isinf(distances[source]):
        raise ValueError(f"no usable path from {source} to {destination}")
    path = [source]
    while path[-1] != destination:
        path.append(int(next_hop[path[-1]]))
    return path


def path_etx(topology: LinkView, path: list[int], ack_aware: bool = False) -> float:
    """Total ETX of an explicit path (sum of its link ETXs)."""
    total = 0.0
    for sender, receiver in zip(path[:-1], path[1:]):
        total += link_etx(topology, sender, receiver, ack_aware=ack_aware)
    return total


def hop_count(topology: LinkView, source: int, destination: int,
              ack_aware: bool = False) -> int:
    """Number of hops on the best-ETX path between two nodes."""
    return len(best_path(topology, source, destination, ack_aware=ack_aware)) - 1


def etx_order(topology: LinkView, destination: int, ack_aware: bool = False) -> list[int]:
    """Nodes sorted by increasing ETX distance to ``destination``.

    Unreachable nodes are omitted.  This ordering defines "closer to the
    destination" for MORE and ExOR forwarder lists.
    """
    distances = etx_to_destination(topology, destination, ack_aware=ack_aware)
    reachable = [i for i in range(topology.node_count) if not math.isinf(distances[i])]
    return sorted(reachable, key=lambda i: (distances[i], i))
