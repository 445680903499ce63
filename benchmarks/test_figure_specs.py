"""The ``--paper-scale`` figure specs, which tier-1 never runs, still resolve."""

from __future__ import annotations

from conftest import FIGURE_SAMPLES, figure_spec


def test_paper_scale_specs_resolve():
    for preset in FIGURE_SAMPLES:
        for cell in figure_spec(preset, paper_scale=True).expand():
            assert cell.scenario.run_config(cell.seed).total_packets == 3495

    batch_sizes = [cell.axes["run.batch_size"]
                   for cell in figure_spec("fig_4_7", paper_scale=True).expand()]
    assert batch_sizes == [8, 16, 32, 64, 128]
    set_counts = [cell.scenario.workload.params["set_count"]
                  for cell in figure_spec("fig_4_5", paper_scale=True).expand()]
    assert set_counts == [40] * 4
