"""Routing metrics and the Chapter 5 theory: ETX, EOTX, credits, LP, gaps.

Each name below loads its module on first use (:mod:`repro.lazy`): a run
plans with ETX, EOTX and credits, and never loads the LP or the gap survey.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.metrics.credits import (
        PRUNING_FRACTION,
        TransmissionPlan,
        candidate_forwarders,
        expected_transmissions,
        forwarding_plan,
        load_distribution,
        prune_forwarders,
        tx_credits,
    )
    from repro.metrics.eotx import (
        eotx_bellman_ford,
        eotx_dijkstra,
        eotx_order,
        eotx_recursive,
    )
    from repro.metrics.etx import (
        LINK_THRESHOLD,
        best_path,
        etx_order,
        etx_to_destination,
        hop_count,
        link_etx,
        path_etx,
    )
    from repro.metrics.gap import (
        GapResult,
        cost_gap,
        figure_5_1_eotx_cost,
        figure_5_1_etx_cost,
        figure_5_1_gap,
        gap_survey,
        summarize_gaps,
    )
    from repro.metrics.lp import FlowSolution, solve_min_cost_flow, verify_flow_conservation

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.credits": (
        "PRUNING_FRACTION", "TransmissionPlan", "candidate_forwarders",
        "expected_transmissions", "forwarding_plan", "load_distribution",
        "prune_forwarders", "tx_credits"),
    "repro.metrics.eotx": (
        "eotx_bellman_ford", "eotx_dijkstra", "eotx_order", "eotx_recursive"),
    "repro.metrics.etx": (
        "LINK_THRESHOLD", "best_path", "etx_order", "etx_to_destination", "hop_count",
        "link_etx", "path_etx"),
    "repro.metrics.gap": (
        "GapResult", "cost_gap", "figure_5_1_eotx_cost", "figure_5_1_etx_cost",
        "figure_5_1_gap", "gap_survey", "summarize_gaps"),
    "repro.metrics.lp": ("FlowSolution", "solve_min_cost_flow", "verify_flow_conservation"),
})

__all__ = [
    "FlowSolution",
    "GapResult",
    "LINK_THRESHOLD",
    "PRUNING_FRACTION",
    "TransmissionPlan",
    "best_path",
    "candidate_forwarders",
    "cost_gap",
    "eotx_bellman_ford",
    "eotx_dijkstra",
    "eotx_order",
    "eotx_recursive",
    "etx_order",
    "etx_to_destination",
    "expected_transmissions",
    "figure_5_1_eotx_cost",
    "figure_5_1_etx_cost",
    "figure_5_1_gap",
    "forwarding_plan",
    "gap_survey",
    "hop_count",
    "link_etx",
    "load_distribution",
    "path_etx",
    "prune_forwarders",
    "solve_min_cost_flow",
    "summarize_gaps",
    "tx_credits",
    "verify_flow_conservation",
]
