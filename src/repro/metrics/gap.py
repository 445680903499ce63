"""ETX-order vs EOTX-order cost gap (Section 5.7).

Both MORE and ExOR order forwarders by ETX even though Chapter 5 shows EOTX
is the optimal ordering.  Section 5.7 quantifies the resulting inefficiency:

* Proposition 6 constructs a topology (Figure 5-1) on which the gap —
  the ratio of total expected transmissions with ETX ordering to that with
  EOTX ordering — can be made arbitrarily large;
* on the real testbed the gap turns out to be negligible (more than 40% of
  flows unaffected; median gap of the affected flows about 0.2%).

This module computes the gap for arbitrary topologies (via Algorithm 1 run
under both orderings) and provides the closed-form expressions for the
Figure 5-1 topology so tests can validate the limit ``gap -> k`` as
``p -> 0``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.metrics.credits import expected_transmissions
from repro.topology.graph import Topology


def _affected(gap: float) -> bool:
    """True if a pair's cost ratio says the ordering changes its cost
    measurably: the one rule of an "affected" pair."""
    return abs(gap - 1.0) > 1e-9


@dataclass(frozen=True)
class GapResult:
    """Cost comparison of ETX-ordered vs EOTX-ordered forwarding for one pair.

    Attributes:
        source: flow source node.
        destination: flow destination node.
        etx_cost: total expected transmissions with ETX ordering.
        eotx_cost: total expected transmissions with EOTX ordering.
    """

    source: int
    destination: int
    etx_cost: float
    eotx_cost: float

    @property
    def gap(self) -> float:
        """Cost ratio (>= 1 in theory; 1 means the orderings agree)."""
        if self.eotx_cost <= 0.0:
            return 1.0
        return self.etx_cost / self.eotx_cost

    @property
    def affected(self) -> bool:
        """True if the ordering choice changes the total cost measurably:
        ``gap`` differs from 1 by more than 1e-9."""
        return _affected(self.gap)


def cost_gap(topology: Topology, source: int, destination: int) -> GapResult:
    """Compute the ETX-vs-EOTX cost gap for one source-destination pair."""
    etx_plan = expected_transmissions(topology, source, destination, metric="etx")
    eotx_plan = expected_transmissions(topology, source, destination, metric="eotx")
    return GapResult(
        source=source,
        destination=destination,
        etx_cost=etx_plan.total_cost,
        eotx_cost=eotx_plan.total_cost,
    )


def gap_survey(topology: Topology, pairs: list[tuple[int, int]]) -> list[GapResult]:
    """Compute the gap for a list of source-destination pairs."""
    return [cost_gap(topology, s, d) for s, d in pairs]


def summarize_gaps(gaps: Sequence[float]) -> dict[str, float]:
    """Summary statistics of the cost ratios ``gaps`` (:attr:`GapResult.gap`
    of each pair), matching the presentation in Section 5.7.

    Returns a dict with:

    * ``fraction_unaffected`` — share of flows whose cost the ordering does
      not change (the paper reports > 40%);
    * ``median_gap_affected`` — median relative excess cost
      (``gap - 1``) among affected flows (the paper reports about 0.2%);
    * ``max_gap`` — worst observed ratio.

    A pair is affected by the rule of :attr:`GapResult.affected`.
    """
    if not gaps:
        return {"fraction_unaffected": 1.0, "median_gap_affected": 0.0, "max_gap": 1.0}
    excess = [gap - 1.0 for gap in gaps if _affected(gap)]
    return {
        "fraction_unaffected": (len(gaps) - len(excess)) / len(gaps),
        "median_gap_affected": float(np.median(excess)) if excess else 0.0,
        "max_gap": float(max(gaps)),
    }


def figure_5_1_etx_cost(bridge_delivery: float) -> float:
    """Closed-form total cost with ETX ordering on the Figure 5-1 topology.

    ETX ranks node B no closer to the destination than the source, so only
    node A can forward and the cost is that of the path src -> A -> dst,
    namely ``1/p + 1``.
    """
    return 1.0 / bridge_delivery + 1.0


def figure_5_1_eotx_cost(bridge_delivery: float, branch_count: int) -> float:
    """Closed-form total cost with EOTX ordering on the Figure 5-1 topology.

    Routing through B and the k parallel C nodes costs
    ``1 / (1 - (1-p)^k) + 2`` (source -> B, B -> some C, C -> destination).
    """
    p = bridge_delivery
    return 1.0 / (1.0 - (1.0 - p) ** branch_count) + 2.0


def figure_5_1_gap(bridge_delivery: float, branch_count: int) -> float:
    """Closed-form gap for the Figure 5-1 topology (Proposition 6).

    The limit as ``bridge_delivery -> 0`` is ``branch_count``, which is what
    makes the gap unbounded.
    """
    return figure_5_1_etx_cost(bridge_delivery) / figure_5_1_eotx_cost(
        bridge_delivery, branch_count
    )
