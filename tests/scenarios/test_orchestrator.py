"""Sweep orchestrator: cache keys, retry/timeout, journals, resume-after-kill."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments.orchestrator import (
    WorkerFaultSpec,
    ResultStore,
    SweepError,
    SweepJournal,
    code_version,
    config_fingerprint,
    run_sweep,
    spec_hash,
)
from repro.experiments.orchestrator.store import CellKey
from repro.experiments.runner import RunConfig
from repro.scenarios import ScenarioSpec, get_preset

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def quick_cells() -> ScenarioSpec:
    """Four fast one-protocol cells for pool fault-injection tests."""
    spec = get_preset("chain_smoke")
    spec = spec.with_overrides({"run.total_packets": 16})
    spec.seeds = (1, 2, 3, 4)
    return spec


class TestCacheKeys:
    def test_fingerprint_covers_every_runconfig_field(self):
        fingerprint = config_fingerprint(RunConfig())
        assert set(fingerprint) == {f.name for f in fields(RunConfig)}

    def test_fingerprint_is_json_stable(self):
        # refresh_period defaults to inf, which JSON cannot carry natively.
        fingerprint = config_fingerprint(RunConfig())
        assert json.loads(json.dumps(fingerprint)) == fingerprint

    def test_spec_hash_stable_across_json_round_trip(self, tiny_sweep):
        respec = ScenarioSpec.from_json(tiny_sweep.to_json())
        for original, reloaded in zip(tiny_sweep.expand(), respec.expand()):
            assert spec_hash(original) == spec_hash(reloaded)

    def test_spec_hash_changes_with_any_config_knob(self, tiny_sweep):
        baseline = spec_hash(tiny_sweep.expand()[0])
        # A knob the scenario's own run dict never mentions still feeds the
        # hash, because the *resolved* config is fingerprinted.
        changed = tiny_sweep.with_overrides({"run.estimation_exponent": 0.9})
        assert spec_hash(changed.expand()[0]) != baseline

    def test_code_version_tracks_source_content(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "a.py").write_text("x = 1\n")
        first = code_version(tree)
        assert code_version(tree) == first
        (tree / "a.py").write_text("x = 2\n")
        assert code_version(tree) != first

        # The key covers the simulator package and nothing beside it: in a
        # copy of this repository's layout it is the live key, before and
        # after a byte changes under the analyzer's directory.
        repo = Path(__file__).resolve().parents[2]
        for directory in ("src/repro", "repro_check"):
            shutil.copytree(repo / directory, tmp_path / directory,
                            ignore=shutil.ignore_patterns("__pycache__"))
        assert code_version(tmp_path / "src" / "repro") == code_version()
        with open(tmp_path / "repro_check" / "style.py", "a") as rule:
            rule.write("# edited\n")
        assert code_version(tmp_path / "src" / "repro") == code_version()

    def test_code_version_miss_forces_recompute(self, tiny_sweep, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        cell = tiny_sweep.expand()[0]
        hit = store.load(store.key_for(cell))
        assert hit is not None
        stale = CellKey(scenario=cell.scenario.name, spec_hash=spec_hash(cell),
                        seed=cell.seed, code_version="deadbeef")
        assert ResultStore(tmp_path, code="deadbeef").load(stale) is None

    def test_byte_identical_respec_hits(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        respec = ScenarioSpec.from_json(tiny_sweep.to_json())
        again = run_sweep(respec, workers=1, results_dir=tmp_path)
        assert again.cached_cells == len(again.cells)
        assert again.computed_cells == 0

    def test_legacy_flat_cache_is_never_read(self, tiny_sweep, tmp_path):
        first = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        # Plant a flat cache entry outside results/store/; it must be ignored.
        legacy_dir = tmp_path / "tiny_sweep"
        legacy_dir.mkdir()
        legacy = legacy_dir / "cell-0123456789abcdef.json"
        legacy.write_text(json.dumps({"cell": {}, "result": first.cells[0].to_dict()}))
        store = ResultStore(tmp_path, code="")
        # The report loader only walks the store, so the planted file is
        # invisible; both real cells still load from under results/store/.
        assert len(store.iter_results(["tiny_sweep"])["tiny_sweep"]) == 2
        again = run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        assert again.cached_cells == len(again.cells)  # hits come from the store


class TestRetryTimeout:
    def test_crashed_worker_is_replaced_and_cell_retried(self, quick_cells, tmp_path):
        reference = run_sweep(quick_cells, workers=1, results_dir=None)
        fault = WorkerFaultSpec(kind="crash", positions=(1,),
                                marker=str(tmp_path / "crash.marker"))
        result = run_sweep(quick_cells, workers=2, results_dir=None,
                           fault=fault, cell_timeout=10.0)
        assert (tmp_path / "crash.marker").exists()  # the fault really fired
        assert [c.to_dict() for c in result.cells] \
            == [c.to_dict() for c in reference.cells]

    def test_hung_worker_is_killed_and_cell_retried(self, quick_cells, tmp_path):
        reference = run_sweep(quick_cells, workers=1, results_dir=None)
        fault = WorkerFaultSpec(kind="hang", positions=(2,),
                                marker=str(tmp_path / "hang.marker"))
        result = run_sweep(quick_cells, workers=2, results_dir=None,
                           fault=fault, cell_timeout=1.5)
        assert (tmp_path / "hang.marker").exists()
        assert [c.to_dict() for c in result.cells] \
            == [c.to_dict() for c in reference.cells]

    def test_retries_exhausted_raises_sweep_error(self, quick_cells, tmp_path):
        fault = WorkerFaultSpec(kind="crash", positions=(0,),
                                marker=str(tmp_path / "always.marker"), once=False)
        results_dir = tmp_path / "results"
        with pytest.raises(SweepError, match="cell 0"):
            run_sweep(quick_cells, workers=2, results_dir=results_dir,
                      fault=fault, cell_timeout=10.0, retries=1)
        # The journal names the cell that failed and how often it was tried.
        records = SweepJournal(ResultStore(results_dir), quick_cells).records()
        assert records[-1]["event"] == "cell"
        assert {key: records[-1][key] for key in ("index", "status", "attempt")} \
            == {"index": 0, "status": "failed", "attempt": 2}
        assert "finish" not in [record["event"] for record in records]

    def test_a_rejected_spec_is_reported_in_cell_order(self, tmp_path):
        """The pool reports the first cell in cell order that rejects its
        spec, as the serial path does, whichever worker reports first: here
        cell 0's worker crashes once, so cell 1 is rejected before it."""
        spec = get_preset("chain_smoke").with_overrides({"workload.kind": "explicit"})
        spec.sweep = {"workload.pairs": ([], [[0, 99]])}
        fault = WorkerFaultSpec(kind="crash", positions=(0,),
                                marker=str(tmp_path / "crash.marker"))
        for workers in (1, 2):
            with pytest.raises(ValueError, match=r"pairs must be a non-empty list"):
                run_sweep(spec, workers=workers, results_dir=None, fault=fault,
                          cell_timeout=10.0)
        assert (tmp_path / "crash.marker").exists()  # the fault really fired

    def test_recovered_cell_is_journaled_as_retried_not_failed(self, quick_cells,
                                                               tmp_path):
        fault = WorkerFaultSpec(kind="crash", positions=(1,),
                                marker=str(tmp_path / "once.marker"))
        results_dir = tmp_path / "results"
        run_sweep(quick_cells, workers=2, results_dir=results_dir,
                  fault=fault, cell_timeout=10.0, retries=1)
        records = SweepJournal(ResultStore(results_dir), quick_cells).records()
        statuses = {record["index"]: (record["status"], record["attempt"])
                    for record in records if record["event"] == "cell"}
        assert statuses[1] == ("retried", 2)
        assert "failed" not in {status for status, _ in statuses.values()}
        assert records[-1] == {"event": "finish", "computed": 4, "cached": 0}

    def test_retry_shows_in_progress_lines(self, quick_cells, tmp_path, capsys):
        fault = WorkerFaultSpec(kind="crash", positions=(1,),
                                marker=str(tmp_path / "crash.marker"))
        run_sweep(quick_cells, workers=2, results_dir=None, progress=True,
                  fault=fault, cell_timeout=10.0)
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert "sweep chain_smoke: retrying cell 1 (crashed; " in captured.err
        assert lines[-1].startswith("sweep chain_smoke: 4/4 cells | 0 cached | ")
        assert " | 1 retried" in lines[-1]


class TestPoolLifetime:
    """A sweep stops the workers it started before it returns or raises."""

    def test_no_worker_outlives_a_sweep(self, quick_cells):
        run_sweep(quick_cells, workers=2, results_dir=None)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_sweep(self, quick_cells, tmp_path):
        fault = WorkerFaultSpec(kind="crash", positions=(0,),
                                marker=str(tmp_path / "always.marker"), once=False)
        with pytest.raises(SweepError):
            run_sweep(quick_cells, workers=2, results_dir=None, fault=fault,
                      retries=0)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_rejected_spec(self):
        spec = get_preset("chain_smoke").with_overrides(
            {"workload.kind": "explicit", "workload.pairs": [[0, 999]]})
        spec.seeds = (1, 2, 3)
        with pytest.raises(ValueError, match="pair"):
            run_sweep(spec, workers=2, results_dir=None)
        assert multiprocessing.active_children() == []


class TestJournal:
    def test_journal_records_lifecycle(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        store = ResultStore(tmp_path)
        journal = SweepJournal(store, tiny_sweep)
        records = journal.records()
        events = [record["event"] for record in records]
        assert events[0] == "start"
        assert events[-1] == "finish"
        assert events.count("cell") == 2
        assert records[0]["cells"] == 2
        assert records[-1] == {"event": "finish", "computed": 2, "cached": 0}

    def test_journal_tolerates_torn_tail(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        journal = SweepJournal(ResultStore(tmp_path), tiny_sweep)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "cel')  # SIGKILL mid-append
        assert [r["event"] for r in journal.records()][-1] == "finish"

    def test_resume_journal_counts_cached_cells(self, tiny_sweep, tmp_path):
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        run_sweep(tiny_sweep, workers=1, results_dir=tmp_path)
        journal = SweepJournal(ResultStore(tmp_path), tiny_sweep)
        starts = [r for r in journal.records() if r["event"] == "start"]
        assert [record["cached"] for record in starts] == [0, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_error_is_journaled_as_failed(self, workers, tmp_path):
        # A pair naming a node the mesh lacks: the cell rejects its spec.
        spec = get_preset("chain_smoke").with_overrides(
            {"workload.kind": "explicit", "workload.pairs": [[0, 999]]})
        with pytest.raises(ValueError, match="pair"):
            run_sweep(spec, workers=workers, results_dir=tmp_path)
        records = SweepJournal(ResultStore(tmp_path), spec).records()
        assert [record["event"] for record in records] == ["start", "cell"]
        assert {key: records[-1][key] for key in ("index", "status", "attempt")} \
            == {"index": 0, "status": "failed", "attempt": 1}


def _sweep_command(extra: tuple[str, ...] = ()) -> list[str]:
    return [sys.executable, "-m", "repro", "sweep", "--preset", "chain_smoke",
            "--set", "run.total_packets=16", "--seeds", "1,2,3,4,5,6,7,8",
            "--workers", "2", "--json", *extra]


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _live_processes() -> dict[int, int]:
    """``pid -> parent pid`` of every process that is not a zombie."""
    listing = subprocess.run(["ps", "-A", "-o", "pid=,ppid=,stat="], check=True,
                             capture_output=True, text=True).stdout
    rows = (line.split() for line in listing.splitlines())
    return {int(pid): int(ppid) for pid, ppid, state in rows
            if not state.startswith("Z")}


class TestResumeAfterKill:
    def test_sigkill_resume_runs_only_missing_cells(self, tmp_path):
        workdir = tmp_path / "killed"
        workdir.mkdir()
        store_dir = workdir / "results" / "store" / "chain_smoke"

        process = subprocess.Popen(_sweep_command(), cwd=workdir,
                                   env=_cli_env(),
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if store_dir.is_dir() and list(store_dir.glob("cell-*.json")):
                    break
                if process.poll() is not None:
                    break  # finished before we could kill it; still a resume
                time.sleep(0.01)
            workers = {pid for pid, parent in _live_processes().items()
                       if parent == process.pid}
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=60)
        survivors = len(list(store_dir.glob("cell-*.json")))
        assert survivors >= 1  # something completed before the kill

        # The pool dies with its orchestrator: no worker outlives the kill
        # by more than its parent-watch period and the cell it had in hand.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and _live_processes().keys() & workers:
            time.sleep(0.1)
        assert not _live_processes().keys() & workers

        resumed = subprocess.run(_sweep_command(), cwd=workdir, env=_cli_env(),
                                 capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["cached_cells"] >= survivors
        assert payload["cached_cells"] + payload["computed_cells"] == 8

        # The resumed aggregate is bit-identical to an uninterrupted run.
        cleandir = tmp_path / "clean"
        cleandir.mkdir()
        clean = subprocess.run(_sweep_command(), cwd=cleandir, env=_cli_env(),
                               capture_output=True, text=True, timeout=300)
        assert clean.returncode == 0, clean.stderr
        assert json.loads(clean.stdout)["cells"] == payload["cells"]
