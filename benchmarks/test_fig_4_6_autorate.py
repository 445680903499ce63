"""Figure 4-6: Srcr with Onoe autorate vs MORE/ExOR at a fixed 11 Mb/s.

Paper result: opportunistic routing keeps its advantage even when Srcr is
allowed automatic rate selection; autorate does not clearly beat the fixed
maximum rate because it reacts to interference losses by dropping to slow,
airtime-hungry rates.
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_6

from conftest import run_figure


def test_figure_4_6_autorate(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_6, "fig_4_6", paper_scale)

    # MORE keeps a clear advantage over Srcr-with-autorate.
    assert result.summary["more_over_srcr_autorate_median_gain"] > 1.1
    # Autorate does not dramatically outperform the fixed maximum rate
    # (the paper finds it slightly *worse* on average).
    assert result.summary["autorate_over_fixed_median_gain"] < 1.5
