"""Figure views over hand-built cells: nothing is simulated.

Cells that differ only in seed are pooled (a two-seed spec used to crash
five views and was silently mis-read by the other two), and the pairs on
which Srcr delivered nothing — dropped from every per-pair MORE/Srcr ratio
— are counted where they are dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.stats import median
from repro.scenarios import get_preset
from repro.scenarios.execute import CellResult


def hand_cell(series, seed=1, axes=None, **meta) -> CellResult:
    return CellResult(scenario="hand_built", mode="throughput", seed=seed, axes=axes or {},
                      key=f"hand-{seed}", series=series, summary={}, meta=meta)


def throughputs(spec, seed: int) -> dict[str, list[float]]:
    """Four distinct positive values per series (``gap`` ratios in gap mode)."""
    rng = np.random.default_rng(seed)
    names = ("gap",) if spec.mode == "gap" else spec.protocols
    return {name: [float(value) for value in 1.0 + rng.random(4)] for name in names}


def two_seeds(spec, axes=None, salt=0, **meta):
    """The cells of seeds 1 and 2 at one sweep point, and their pooled series."""
    one, two = throughputs(spec, salt + 1), throughputs(spec, salt + 2)
    cells = [hand_cell(two, 2, axes, **meta), hand_cell(one, 1, axes, **meta)]  # out of order
    return cells, {name: one[name] + two[name] for name in one}


@pytest.mark.parametrize("name", ["figure_4_2", "figure_4_3", "figure_4_4", "figure_4_6",
                                  "figure_5_1"])
def test_single_point_view_pools_the_seeds_in_seed_order(name):
    row = FIGURES[name]
    spec = get_preset(row.preset)
    cells, pooled = two_seeds(spec, pairs=[[0, 1]])
    expected = row.view(spec, [hand_cell(pooled, pairs=[[0, 1]] * 2)])
    result = row.view(spec, cells)
    assert (result.report, result.summary, result.extras) \
        == (expected.report, expected.summary, expected.extras)


def test_figure_4_5_has_one_point_per_flow_count():
    spec = get_preset("fig_4_5")
    cells, means = [], []
    for count in (1, 2):
        at_count, pooled = two_seeds(spec, {"workload.flow_count": count}, 10 * count,
                                    flow_count=count, flow_sets=[])
        cells += at_count
        means.append(float(np.mean(pooled["MORE"])))
    result = FIGURES["figure_4_5"].view(spec, cells)
    assert result.series["MORE"] == pytest.approx(means)  # not one per (count, seed)
    assert result.summary["more_at_2_flows"] == pytest.approx(means[1])


def test_figure_4_7_takes_each_median_over_every_seed():
    spec = get_preset("fig_4_7")
    cells, medians = [], {}
    for batch_size in (8, 32):
        at_size, pooled = two_seeds(spec, {"run.batch_size": batch_size}, batch_size,
                                    pairs=[[0, 1]])
        cells += at_size
        medians[batch_size] = median(pooled["MORE"])
    result = FIGURES["figure_4_7"].view(spec, cells)
    assert result.extras["medians"]["MORE"] == medians  # not the last seed's alone
    assert result.summary["more_k8_vs_k32"] == medians[8] / medians[32]


@pytest.mark.parametrize("name", ["figure_4_2", "figure_4_3"])
def test_pairs_srcr_delivered_nothing_on_are_counted(name):
    row = FIGURES[name]
    spec = get_preset(row.preset)
    series = {"MORE": [40.0, 30.0, 20.0, 9.0], "ExOR": [30.0, 25.0, 15.0, 5.0],
              "Srcr": [20.0, 10.0, 5.0, 0.0]}
    stranded = row.view(spec, [hand_cell(series, pairs=[])])
    assert stranded.summary["srcr_zero_pairs"] == 1.0
    assert stranded.report.splitlines()[-1] \
        == "pairs left out of the per-pair ratios (Srcr delivered nothing): 1"

    series["Srcr"][-1] = 3.0
    served = row.view(spec, [hand_cell(series, pairs=[])])
    assert served.summary["srcr_zero_pairs"] == 0.0
    assert len(served.report.splitlines()) == len(stranded.report.splitlines()) - 1
