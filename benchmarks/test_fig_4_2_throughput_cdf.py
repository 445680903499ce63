"""Figure 4-2: CDF of unicast throughput for MORE, ExOR and Srcr.

Paper result: MORE's median throughput is ~22% above ExOR and ~95% above
Srcr; the most challenged pairs gain 10-12x over Srcr; 90% of MORE flows
exceed 50 pkt/s while Srcr's 10th percentile sits around 10 pkt/s.
The benchmark regenerates the CDF series and checks the ordering and the
approximate gain factors (the synthetic testbed reproduces the shape, not
the exact numbers).
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_2

from conftest import run_figure


def test_figure_4_2_unicast_throughput(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_2, "fig_4_2", paper_scale)

    more_over_exor = result.summary["more_over_exor_median_gain"]
    more_over_srcr = result.summary["more_over_srcr_median_gain"]

    # Shape checks: MORE > ExOR and MORE > Srcr in the median, with gains in
    # the same ballpark as the paper's 1.2x and 1.95x.
    assert more_over_exor > 1.0
    assert more_over_srcr > 1.2
    assert 1.0 < more_over_exor < 2.0
    assert 1.2 < more_over_srcr < 4.0
    # Challenged flows gain far more than the median flow.
    assert result.summary["max_pairwise_gain_over_srcr"] > more_over_srcr
