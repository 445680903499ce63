"""Figure 4-3: per-pair throughput scatter, opportunistic routing vs Srcr.

Paper result: the points far above the 45-degree line are the challenged
(low Srcr throughput) flows; flows that already do well under Srcr gain
little.  The benchmark checks exactly that asymmetry.
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_3

from conftest import run_figure


def test_figure_4_3_scatter(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_3, "fig_4_3", paper_scale)

    # Opportunistic routing helps the challenged half of the pairs much more
    # than the already-good half.
    assert result.summary["mean_gain_challenged"] > result.summary["mean_gain_good"]
    assert result.summary["mean_gain_challenged"] > 1.2
    # Most pairs sit above the diagonal for MORE.
    assert result.summary["fraction_above_diagonal_more"] >= 0.5
