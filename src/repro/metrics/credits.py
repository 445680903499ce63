"""Expected transmission counts, TX credits and forwarder pruning.

This module implements the machinery of Section 3.2.1 and Section 5.6:

* :func:`expected_transmissions` — Algorithm 1: given a forwarder ordering
  (by ETX or EOTX), compute for each node the expected number of
  transmissions ``z_i`` it must make per source packet, and the expected
  number of packets ``L_i`` it must forward.
* :func:`tx_credits` — Equation 3.3: the number of transmissions a forwarder
  makes per packet heard from upstream, which is the quantity MORE nodes
  actually use at run time (the credit counter increment).
* :func:`prune_forwarders` — the 10% pruning rule.
* :func:`cap_forwarders` — the fixed-size alternative (top-N relays by
  expected load), which is what keeps kilonode meshes routable: at that
  density the load spreads so thin that the fraction rule prunes *every*
  relay.
* :func:`load_distribution` — Algorithm 6: the flow-method computation of
  ``z`` and the edge flows ``x_ij`` from the per-node costs, which
  Section 5.6.2 shows coincides with Algorithm 1 when the EOTX order is
  used and losses are independent.
* :func:`forwarding_plan` — the one-stop entry point MORE's source calls to
  build a forwarder list with credits (what goes into the packet header).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.metrics.etx import etx_to_destination
from repro.metrics.eotx import eotx_dijkstra
from repro.topology.graph import LinkView

#: Forwarders expected to perform less than this fraction of the total
#: transmissions are pruned (Section 3.2.1, "Pruning").
PRUNING_FRACTION = 0.10


@dataclass
class TransmissionPlan:
    """The per-flow forwarding state computed by the source.

    Attributes:
        source: source node id.
        destination: destination node id.
        participants: nodes taking part (destination first, source last),
            ordered by increasing distance-to-destination under ``metric``.
        distances: metric distance of every node in the topology
            (``inf`` for unreachable nodes).
        z: expected transmissions per source packet, indexed by node id.
        load: expected packets to forward per source packet (``L_i``).
        tx_credit: TX credit per node id (Eq. 3.3); 0 for non-participants
            and for the source (which is clocked by ACKs, not receptions).
        x: dict mapping (sender, receiver) to the expected innovative flow
            on that hyper-edge component (only filled by the flow method).
        metric: "etx" or "eotx" — which ordering was used.
    """

    source: int
    destination: int
    participants: list[int]
    distances: np.ndarray
    z: np.ndarray
    load: np.ndarray
    tx_credit: np.ndarray
    x: dict[tuple[int, int], float] = field(default_factory=dict)
    metric: str = "etx"

    @property
    def total_cost(self) -> float:
        """Total expected transmissions per delivered packet, sum_i z_i."""
        return float(self.z.sum())

    def forwarder_list(self, include_endpoints: bool = False) -> list[int]:
        """Intermediate forwarders ordered by proximity to the destination."""
        if include_endpoints:
            return list(self.participants)
        return [n for n in self.participants if n not in (self.source, self.destination)]


def _metric_distances(topology: LinkView, destination: int, metric: str) -> np.ndarray:
    """Distance-to-destination vector under the requested metric."""
    if metric == "etx":
        return etx_to_destination(topology, destination)
    if metric == "eotx":
        return eotx_dijkstra(topology, destination)
    raise ValueError(f"unknown ordering metric {metric!r}; expected 'etx' or 'eotx'")


def candidate_forwarders(topology: LinkView, source: int, destination: int,
                         metric: str = "etx") -> tuple[list[int], np.ndarray]:
    """Participants of a flow, ordered by increasing distance to the destination.

    Only nodes strictly closer to the destination than the source are useful
    forwarders (Section 3.2.1); the source itself closes the list.

    Returns:
        ``(participants, distances)`` where participants[0] is the
        destination and participants[-1] is the source.
    """
    distances = _metric_distances(topology, destination, metric)
    if math.isinf(distances[source]):
        raise ValueError(f"source {source} cannot reach destination {destination}")
    members = [
        node for node in range(topology.node_count)
        if node != source and not math.isinf(distances[node])
        and distances[node] < distances[source]
    ]
    members.sort(key=lambda n: (distances[n], n))
    members.append(source)
    if members[0] != destination:
        raise RuntimeError("destination must be the closest participant to itself")
    return members, distances


def _participant_block(topology: LinkView, order: list[int]) -> np.ndarray:
    """``delivery[order[a], order[b]]`` for every pair of positions in ``order``.

    The |P|×|P| block of the delivery matrix over the participants, read
    off the link table one participant's links at a time: what Algorithm 1,
    Eq. 3.3 and Algorithm 6 consume, without an N×N matrix.
    """
    links = topology.link_table()
    position = np.full(topology.node_count, -1, dtype=np.intp)
    position[order] = np.arange(len(order))
    block = np.zeros((len(order), len(order)))
    for row, sender in enumerate(order):
        start, stop = links.indptr[sender], links.indptr[sender + 1]
        columns = position[links.receivers[start:stop]]
        member = columns >= 0
        block[row, columns[member]] = links.delivery[start:stop][member]
    return block


def expected_transmissions(topology: LinkView, source: int, destination: int,
                           metric: str = "etx") -> TransmissionPlan:
    """Algorithm 1: expected per-node transmission counts ``z_i``.

    Nodes are ordered by increasing distance to the destination under
    ``metric``; packets conceptually flow from the source (position n) down
    the order, and a node forwards a packet only if no node closer to the
    destination heard it.
    """
    participants, distances = candidate_forwarders(topology, source, destination,
                                                   metric=metric)
    count = topology.node_count
    order = participants  # order[0] = destination ... order[-1] = source
    delivery = _participant_block(topology, order)
    n = len(order)
    load = np.zeros(count)
    z = np.zeros(count)
    load[source] = 1.0  # L_n = 1: the source generates the packet.

    # Walk from the source (index n-1) down to index 1; index 0 is the
    # destination which never forwards.
    for position in range(n - 1, 0, -1):
        node = order[position]
        if load[node] <= 0.0:
            continue
        # eps[node, closer] for every strictly closer node, nearest first.
        eps = (1.0 - delivery[position, :position]).tolist()
        # Probability that at least one strictly closer node hears node's
        # transmission.
        miss_all_closer = 1.0
        for miss in eps:
            miss_all_closer *= miss
        success = 1.0 - miss_all_closer
        if success <= 0.0:
            # The node cannot make progress; it is useless as a forwarder.
            z[node] = 0.0
            continue
        z[node] = load[node] / success
        # Distribute node's transmissions onto the loads of closer nodes:
        # node j (position closer_position) must forward the packets it
        # receives from node that no node even closer received.
        miss_closer_prefix = 1.0
        for closer_position in range(1, position):
            miss_closer_prefix *= eps[closer_position - 1]
            load[order[closer_position]] += z[node] * miss_closer_prefix \
                * (1.0 - eps[closer_position])

    credits = tx_credits(topology, order, z)
    return TransmissionPlan(
        source=source,
        destination=destination,
        participants=order,
        distances=distances,
        z=z,
        load=load,
        tx_credit=credits,
        metric=metric,
    )


def tx_credits(topology: LinkView, order: list[int], z: np.ndarray) -> np.ndarray:
    """Equation 3.3: transmissions a node makes per packet heard from upstream.

    ``order`` lists participants by increasing distance to the destination;
    "upstream" of a node are the participants that appear after it in the
    order (farther from the destination).  The source has no upstream, so its
    credit is left at zero — MORE clocks the source by batch ACKs instead.
    """
    credits = np.zeros(topology.node_count)
    delivery = _participant_block(topology, order)
    for position, node in enumerate(order):
        if position == len(order) - 1:
            continue  # the source
        expected_received = 0.0
        for upstream_position in range(position + 1, len(order)):
            upstream = order[upstream_position]
            expected_received += z[upstream] * delivery[upstream_position, position]
        if expected_received > 0.0 and z[node] > 0.0:
            credits[node] = z[node] / expected_received
    return credits


def prune_forwarders(topology: LinkView, plan: TransmissionPlan) -> TransmissionPlan:
    """Drop forwarders whose expected transmissions are below
    :data:`PRUNING_FRACTION` of the total (the 10% rule).

    The source and destination are never pruned.  Credits are recomputed over
    the surviving participants so the run-time behaviour stays consistent, and
    pruned nodes also lose their metric distance (set to ``inf``): the
    returned plan is self-consistent, so a "participant" check keyed off
    finite distances agrees with ``participants`` instead of resurrecting
    pruned forwarders.
    """
    total = plan.z.sum()
    if total <= 0.0:
        return plan
    keep = []
    for node in plan.participants:
        if node in (plan.source, plan.destination):
            keep.append(node)
        elif plan.z[node] >= PRUNING_FRACTION * total:
            keep.append(node)
    return _restricted_plan(topology, plan, keep)


def cap_forwarders(topology: LinkView, plan: TransmissionPlan,
                   max_forwarders: int) -> TransmissionPlan:
    """Keep at most ``max_forwarders`` relays: the highest-load ones.

    This is the deterministic-size counterpart of the 10% rule, mirroring
    the fixed forwarder-list budget of MORE's packet header.  The fraction
    rule degenerates on dense kilonode meshes — the expected load spreads
    over a hundred-plus candidates so *no* relay reaches 10% of the total
    and pruning strands the flow — whereas keeping the ``max_forwarders``
    relays with the largest expected transmission counts ``z_i`` retains
    the backbone that actually carries the traffic.  The source and
    destination are never counted against the cap, credits are recomputed
    over the survivors, and dropped relays lose their metric distance,
    exactly as in :func:`prune_forwarders`.
    """
    if max_forwarders < 0:
        raise ValueError("max_forwarders must be non-negative")
    relays = [node for node in plan.participants
              if node not in (plan.source, plan.destination)]
    if len(relays) <= max_forwarders:
        return plan
    top = set(sorted(relays, key=lambda node: (-plan.z[node], plan.distances[node],
                                               node))[:max_forwarders])
    keep = [node for node in plan.participants
            if node in (plan.source, plan.destination) or node in top]
    return _restricted_plan(topology, plan, keep)


def _restricted_plan(topology: LinkView, plan: TransmissionPlan,
                     keep: list[int]) -> TransmissionPlan:
    """Rebuild a plan over the surviving participants ``keep`` (in order)."""
    kept = set(keep)
    pruned_z = plan.z.copy()
    pruned_load = plan.load.copy()
    pruned_distances = plan.distances.copy()
    for node in plan.participants:
        if node not in kept:
            pruned_z[node] = 0.0
            pruned_load[node] = 0.0
            pruned_distances[node] = math.inf
    credits = tx_credits(topology, keep, pruned_z)
    return TransmissionPlan(
        source=plan.source,
        destination=plan.destination,
        participants=keep,
        distances=pruned_distances,
        z=pruned_z,
        load=pruned_load,
        tx_credit=credits,
        x=plan.x,
        metric=plan.metric,
    )


def load_distribution(topology: LinkView, source: int, destination: int) -> TransmissionPlan:
    """Algorithm 6: optimal ``z`` and edge flows ``x`` from the EOTX costs.

    Nodes are processed in decreasing EOTX; each node's unit of load is
    split across cheaper nodes according to the probability that they are
    the cheapest successful recipient ("water filling", Proposition 2).
    """
    participants, distances = candidate_forwarders(topology, source, destination,
                                                   metric="eotx")
    count = topology.node_count
    order = participants
    delivery = _participant_block(topology, order)
    n = len(order)
    load = np.zeros(count)
    z = np.zeros(count)
    x: dict[tuple[int, int], float] = {}
    load[source] = 1.0

    for position in range(n - 1, 0, -1):
        node = order[position]
        if load[node] <= 0.0:
            continue
        # q_j = probability at least one of the j cheapest participants
        # receives a transmission from node (independent losses).
        q_previous = 0.0
        shares = []
        for closer_position in range(position):
            closer = order[closer_position]
            p = delivery[position, closer_position]
            q_current = 1.0 - (1.0 - q_previous) * (1.0 - p)
            shares.append((closer, q_current - q_previous))
            q_previous = q_current
        if q_previous <= 0.0:
            continue
        z[node] = load[node] / q_previous
        for closer, share in shares:
            flow = share * z[node]
            if flow > 0.0:
                x[(node, closer)] = x.get((node, closer), 0.0) + flow
                load[closer] += flow

    credits = tx_credits(topology, order, z)
    return TransmissionPlan(
        source=source,
        destination=destination,
        participants=order,
        distances=distances,
        z=z,
        load=load,
        tx_credit=credits,
        x=x,
        metric="eotx",
    )


def forwarding_plan(topology: LinkView, source: int, destination: int,
                    metric: str = "etx", prune: bool = True,
                    max_forwarders: int | None = None) -> TransmissionPlan:
    """Build the forwarder list + credits a MORE source puts in its headers.

    This is Algorithm 1 followed by the 10% pruning rule.  ``metric`` selects
    the ordering: the deployed MORE uses ETX (Section 5.7 notes both
    protocols pre-date EOTX); pass ``"eotx"`` for the theoretically optimal
    ordering.

    ``max_forwarders`` swaps the fraction rule for the fixed-size cap of
    :func:`cap_forwarders` (top-``N`` relays by expected load) — the form
    of pruning that survives kilonode densities, where the 10% rule keeps
    no relay at all.  ``None`` (the default) keeps the fraction rule,
    today's behaviour bit for bit.

    A plan is a function of the link state and these arguments only, so it
    is derived once per view (:meth:`repro.topology.graph.LinkView.derived`):
    every flow, protocol and seed planning this pair over the same control
    view reads one plan.  Its arrays are read-only; the lists are the caller's own.
    """
    def derive() -> TransmissionPlan:
        plan = expected_transmissions(topology, source, destination, metric=metric)
        if max_forwarders is not None:
            return cap_forwarders(topology, plan, max_forwarders)
        if prune:
            return prune_forwarders(topology, plan)
        return plan

    plan = topology.derived(("forwarding_plan", source, destination, metric, prune,
                             max_forwarders), derive)
    return replace(plan, participants=list(plan.participants), x=dict(plan.x))
