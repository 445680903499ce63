"""Minimum-cost information flow LP (Section 5.3).

Chapter 5 formulates the problem of delivering one unit of information from
a source to a sink over a lossy broadcast medium as a linear program:

* variables: ``z_i`` (expected transmissions of node ``i``) and ``x_ij``
  (innovative flow from ``i`` to ``j``);
* flow conservation at every node (Eq. 5.1);
* one *cost constraint* per hyper-edge ``(i, K)``:
  ``q_iK * z_i >= sum_{k in K} x_ik`` (Eq. 5.2), where ``q_iK`` is the
  probability that at least one node in ``K`` receives ``i``'s transmission;
* objective: minimise ``sum_i z_i`` (Eq. 5.3).

The number of cost constraints is exponential in the node degree, which is
why the paper's O(n^2) EOTX algorithms matter; this module implements the
*reference* LP (full subset enumeration, independent losses) with
:func:`scipy.optimize.linprog` so that tests can verify Proposition 4:
``EOTX(source) == LP optimum``.  scipy is a test extra, imported by
:func:`solve_min_cost_flow` alone: no simulation needs the solver, so
importing this module (and all of ``repro``) loads no scipy.

A polynomial-size variant, :func:`solve_min_cost_flow` with
``prefix_constraints_only=True``, keeps only the constraints on the
cheapest-``i`` prefix sets that Propositions 2-3 prove are sufficient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.metrics.eotx import _usable_delivery, eotx_dijkstra
from repro.topology.graph import Topology

#: Most usable neighbours a node may have when every reception subset gets
#: its cost constraint (2^12 constraints for that node).
MAX_SUBSET_SIZE = 12


@dataclass
class FlowSolution:
    """Solution of the min-cost information flow LP.

    Attributes:
        total_cost: optimal objective value, sum of all ``z_i``.
        z: per-node expected transmissions.
        x: dict mapping (sender, receiver) to innovative flow.
        status: scipy solver status string.
    """

    total_cost: float
    z: np.ndarray
    x: dict[tuple[int, int], float]
    status: str


def _subset_probability(delivery: np.ndarray, node: int, subset: tuple[int, ...]) -> float:
    """q_iK = probability at least one node of ``subset`` receives from ``node``."""
    miss = 1.0
    for receiver in subset:
        miss *= 1.0 - delivery[node, receiver]
    return 1.0 - miss


def solve_min_cost_flow(topology: Topology, source: int, destination: int,
                        demand: float = 1.0,
                        prefix_constraints_only: bool = False) -> FlowSolution:
    """Solve the Section 5.3 LP for a unicast flow.

    Args:
        topology: the mesh (independent per-receiver losses assumed).
        source: source node id.
        destination: sink node id.
        demand: R, the amount of flow to deliver (the optimum scales
            linearly, Proposition 1).
        prefix_constraints_only: keep only the cheapest-prefix cost
            constraints (polynomially many), justified by Propositions 2-3.
            Without it a node has at most :data:`MAX_SUBSET_SIZE` usable
            neighbours.

    Links at most :data:`~repro.metrics.etx.LINK_THRESHOLD` are ignored.

    Returns:
        A :class:`FlowSolution`.

    Raises:
        ValueError: if the source cannot reach the destination, or subset
            enumeration would be too large.
        ImportError: if scipy is not installed.
    """
    try:
        from scipy.optimize import linprog
    except ImportError:
        raise ImportError("the LP reference needs scipy: "
                          "pip install more-repro[test]") from None
    if source == destination:
        raise ValueError("source and destination must differ")
    delivery = _usable_delivery(topology)
    count = topology.node_count

    costs = eotx_dijkstra(topology, destination)
    if math.isinf(costs[source]):
        raise ValueError(f"source {source} cannot reach destination {destination}")

    # Only nodes that can reach the destination participate.
    participants = [i for i in range(count) if not math.isinf(costs[i])]
    index_of = {node: idx for idx, node in enumerate(participants)}
    n = len(participants)

    # Variable layout: z for each participant (destination's z included but
    # forced to zero flow usefulness), then x_ij for each usable directed link
    # between participants.
    links = [(i, j) for i in participants for j in participants
             if i != j and delivery[i, j] > 0.0]
    link_index = {link: n + idx for idx, link in enumerate(links)}
    variable_count = n + len(links)

    objective = np.zeros(variable_count)
    objective[:n] = 1.0  # minimise sum of z_i

    # Equality constraints: flow conservation at every participant except the
    # destination (its balance is implied by the others).
    a_eq_rows = []
    b_eq = []
    for node in participants:
        if node == destination:
            continue
        row = np.zeros(variable_count)
        for (i, j), col in link_index.items():
            if i == node:
                row[col] += 1.0
            if j == node:
                row[col] -= 1.0
        a_eq_rows.append(row)
        b_eq.append(demand if node == source else 0.0)
    a_eq = np.vstack(a_eq_rows) if a_eq_rows else None

    # Inequality constraints (scipy wants A_ub @ v <= b_ub):
    #   sum_{k in K} x_ik - q_iK * z_i <= 0
    a_ub_rows = []
    for node in participants:
        receivers = [j for j in participants if j != node and delivery[node, j] > 0.0]
        if not receivers:
            continue
        if prefix_constraints_only:
            ordered = sorted(receivers, key=lambda j: (costs[j], j))
            subsets = [tuple(ordered[: size + 1]) for size in range(len(ordered))]
        else:
            if len(receivers) > MAX_SUBSET_SIZE:
                raise ValueError(
                    f"node {node} has {len(receivers)} usable neighbours; full subset "
                    f"enumeration capped at {MAX_SUBSET_SIZE} (use prefix_constraints_only)"
                )
            subsets = [
                subset
                for size in range(1, len(receivers) + 1)
                for subset in itertools.combinations(receivers, size)
            ]
        for subset in subsets:
            row = np.zeros(variable_count)
            row[index_of[node]] = -_subset_probability(delivery, node, subset)
            for receiver in subset:
                row[link_index[(node, receiver)]] = 1.0
            a_ub_rows.append(row)
    a_ub = np.vstack(a_ub_rows) if a_ub_rows else None
    b_ub = np.zeros(len(a_ub_rows)) if a_ub_rows else None

    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=[(0.0, None)] * variable_count,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")

    z = np.zeros(count)
    for node, idx in index_of.items():
        z[node] = float(result.x[idx])
    flows = {
        link: float(result.x[col])
        for link, col in link_index.items()
        if result.x[col] > 1e-9
    }
    return FlowSolution(total_cost=float(result.fun), z=z, x=flows, status=result.message)


def verify_flow_conservation(solution: FlowSolution, source: int, destination: int) -> bool:
    """Check Eq. 5.1 for one unit of demand, to within 1e-6, on an LP (or
    algorithmic) solution."""
    nodes = set()
    for (i, j) in solution.x:
        nodes.add(i)
        nodes.add(j)
    nodes.update({source, destination})
    for node in nodes:
        outflow = sum(f for (i, _j), f in solution.x.items() if i == node)
        inflow = sum(f for (_i, j), f in solution.x.items() if j == node)
        expected = 1.0 if node == source else (-1.0 if node == destination else 0.0)
        if abs((outflow - inflow) - expected) > 1e-6:
            return False
    return True
