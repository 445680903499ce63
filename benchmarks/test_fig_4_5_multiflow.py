"""Figure 4-5: average per-flow throughput with 1-4 concurrent flows.

Paper result: MORE and ExOR stay ahead of Srcr, but the per-flow throughput
of every protocol drops as flows are added (opportunistic routing exploits
receptions, it does not create capacity), and the MORE/ExOR gap narrows
under congestion.
"""

from __future__ import annotations

from repro.experiments.figures import figure_4_5

from conftest import run_figure


def test_figure_4_5_multiflow(benchmark, paper_scale):
    result = run_figure(benchmark, figure_4_5, "fig_4_5", paper_scale)

    for protocol in ("MORE", "ExOR", "Srcr"):
        assert len(result.series[protocol]) == 4
    # Opportunistic routing does not add capacity: per-flow throughput under
    # four concurrent flows is well below the single-flow value (checked for
    # the opportunistic protocols; Srcr's tiny-sample series is noisier).
    for protocol in ("MORE", "ExOR"):
        series = result.series[protocol]
        assert series[-1] < series[0]
    # MORE starts ahead of Srcr with a single flow, and the advantage shrinks
    # (or disappears) under congestion rather than growing.
    more, srcr = result.series["MORE"], result.series["Srcr"]
    assert more[0] > srcr[0]
    assert more[-1] / max(srcr[-1], 1e-9) <= more[0] / max(srcr[0], 1e-9)
