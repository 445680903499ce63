"""Figure 4-4: throughput of 4-hop flows whose first and last hop can
transmit concurrently (spatial reuse).

Paper result: MORE's median throughput is about 50% above ExOR on these
flows, because ExOR's scheduler serialises the whole flow while MORE rides
plain 802.11 carrier sense and lets the far-apart hops overlap.
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_4

from conftest import run_figure


def test_figure_4_4_spatial_reuse(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_4, "fig_4_4", paper_scale)

    gain_over_exor = result.summary["more_over_exor_median_gain"]
    # MORE must stay ahead of ExOR on these flows (the paper reports ~1.5x;
    # the synthetic testbed reproduces the direction with a smaller margin —
    # see EXPERIMENTS.md for the measured value and the discussion).
    assert gain_over_exor > 1.0
    assert result.summary["more_over_srcr_median_gain"] > 1.0
