"""Figure 5-1 / Section 5.7: the ETX-order vs EOTX-order cost gap.

Paper result: on the contrived topology the gap grows without bound as the
bridge link weakens (its limit is the number of parallel C nodes), while on
the real testbed the orderings almost always agree (median gap of affected
flows ~0.2%).
"""

from __future__ import annotations

from repro.experiments.figures import figure_5_1

from conftest import run_figure


def test_figure_5_1_cost_gap(benchmark, paper_scale):
    result = run_figure(benchmark, figure_5_1, "fig_5_1", paper_scale)

    analytic = result.series["analytic_gap"]
    measured = result.series["measured_gap"]
    # The gap grows monotonically as the bridge weakens, in both the closed
    # form and the Algorithm-1 measurement.
    assert all(b > a for a, b in zip(analytic, analytic[1:]))
    assert all(b > a for a, b in zip(measured, measured[1:]))
    assert result.summary["max_gap"] > 2.0
    # On the testbed the ordering choice is marginal.
    assert result.summary["testbed_median_gap_affected"] < 0.10
