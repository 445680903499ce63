"""Parallel sweep runner: serial == parallel, caching."""

from __future__ import annotations

import json

from repro.experiments.orchestrator import ResultStore, run_scenario, run_sweep
from repro.scenarios import get_preset


def test_parallel_matches_serial_bit_for_bit(tiny_sweep):
    serial = run_sweep(tiny_sweep, workers=1, results_dir=None)
    parallel = run_sweep(tiny_sweep, workers=2, results_dir=None)
    assert [cell.to_dict() for cell in serial.cells] \
        == [cell.to_dict() for cell in parallel.cells]


def test_multiflow_parallel_matches_serial():
    spec = get_preset("multiflow_grid")
    spec.workload.params["set_count"] = 1
    spec.run["total_packets"] = 24
    spec.run["batch_size"] = 8
    spec.sweep["workload.flow_count"] = (1, 2)
    serial = run_sweep(spec, workers=1, results_dir=None)
    parallel = run_sweep(spec, workers=2, results_dir=None)
    assert [cell.series for cell in serial.cells] \
        == [cell.series for cell in parallel.cells]


def test_gap_mode_runs_without_simulator(tmp_path):
    spec = get_preset("fig_5_1")
    spec.workload.params["count"] = 5
    result = run_sweep(spec, workers=1, results_dir=tmp_path)
    (cell,) = result.cells
    assert len(cell.series["gap"]) == 5
    assert all(gap >= 1.0 for gap in cell.series["gap"])
    assert "fraction_unaffected" in cell.summary


class TestCaching:
    def test_cache_hit_and_reuse(self, tiny_sweep, tmp_path):
        first = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        assert first.cached_cells == 0
        second = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        assert second.cached_cells == len(second.cells)
        assert [cell.to_dict() for cell in first.cells] \
            == [cell.to_dict() for cell in second.cells]

    def test_cache_layout_and_report_loader(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        files = sorted((tmp_path / "store" / "tiny_sweep").glob("cell-*.json"))
        assert len(files) == 2
        payload = json.loads(files[0].read_text())
        assert set(payload) == {"key", "cell", "result"}
        assert set(payload["key"]) == {"scenario", "spec_hash", "seed",
                                       "code_version"}
        grouped = ResultStore(tmp_path, code="").iter_results()
        assert set(grouped) == {"tiny_sweep"}
        assert len(grouped["tiny_sweep"]) == 2

    def test_corrupt_cache_entry_is_recomputed(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        store = ResultStore(tmp_path)
        victim = store.path_for(store.key_for(tiny_sweep.expand()[0]))
        victim.write_text("{not json")
        again = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        assert again.cached_cells == len(again.cells) - 1
        assert json.loads(victim.read_text())  # rewritten with a valid entry

    def test_force_recomputes(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        forced = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path, force=True)
        assert forced.cached_cells == 0

    def test_config_change_misses_cache(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        changed = tiny_sweep.with_overrides({"run.total_packets": 40})
        rerun = run_sweep(changed, workers=1, results_dir=tmp_path)
        assert rerun.cached_cells == 0


def test_run_scenario_pins_seed(tiny_sweep):
    result = run_scenario(tiny_sweep, seed=7, workers=1, results_dir=None)
    assert {cell.seed for cell in result.cells} == {7}


def test_sweep_report_mentions_every_cell(tiny_sweep):
    result = run_sweep(tiny_sweep, workers=1, results_dir=None)
    report = result.report()
    assert report.count("[tiny_sweep]") == len(result.cells)
    assert "2 cells" in report
