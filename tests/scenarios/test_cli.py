"""CLI smoke tests: ``python -m repro list/show/run/sweep/report``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figures import FIGURES
from repro.experiments.runner import RunConfig
from repro.scenarios import ScenarioSpec, get_preset

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          cwd=str(cwd) if cwd else None, timeout=300)


def repro_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return _python("-m", "repro", *args, cwd=cwd)


def test_list_names_every_figure_preset():
    """The ``claims`` column counts the ``FIGURES`` claims of every row run on
    a preset: both views of ``fig_4_2``, and ``-`` where no claim exists yet."""
    proc = repro_cli("list")
    assert proc.returncode == 0, proc.stderr
    for name in ("fig_4_2", "fig_4_5", "fig_4_7", "fig_5_1", "chain_smoke"):
        assert name in proc.stdout
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:4] == ["name", "mode", "cells", "claims"]
    claims = {line.split()[0]: line.split()[3] for line in lines}
    assert claims["fig_4_2"] == str(len(FIGURES["figure_4_2"].claims)
                                    + len(FIGURES["figure_4_3"].claims)) == "6"
    assert claims["fig_4_7"] == "1"
    for name in ("stale_state_sweep", "mobile_mesh", "churn_chain", "crash_recover_sweep",
                 "node_churn_mesh", "kilonode_relays", "kilonode_bitrate", "bursty_chain",
                 "multiflow_bursty", "chain_smoke"):
        assert claims[name] == "-"


def test_show_emits_a_loadable_spec():
    proc = repro_cli("show", "--preset", "chain_smoke")
    assert proc.returncode == 0, proc.stderr
    spec = ScenarioSpec.from_json(proc.stdout)
    assert spec.name == "chain_smoke"
    assert spec.topology.kind == "chain"


def test_run_preset_with_override(tmp_path):
    proc = repro_cli("run", "--preset", "chain_smoke", "--no-cache",
                     "--set", "run.total_packets=16", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "[chain_smoke]" in proc.stdout
    assert "MORE" in proc.stdout
    assert not (tmp_path / "results").exists()  # --no-cache writes nothing


@pytest.mark.parametrize("command", [
    ("list",),
    ("run", "--preset", "chain_smoke", "--no-cache"),
    ("run", "--preset", "fig_5_1", "--no-cache"),  # the analytic path
    ("run", "--preset", "kilonode", "--no-cache"),  # the 1000-node tier, end to end
], ids=["list", "simulated", "analytic", "kilonode"])
def test_cli_runs_without_scipy(command, tmp_path):
    """numpy is the only runtime requirement: scipy (a test extra, the LP
    oracle's solver) used to be imported by every command."""
    masked = ("import sys; sys.modules['scipy'] = None; from repro.cli import main; "
              "raise SystemExit(main(sys.argv[1:]))")
    proc = _python("-c", masked, *command, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_run_unknown_preset_fails():
    proc = repro_cli("run", "--preset", "fig_9_9")
    assert proc.returncode != 0


def _one_line_error(capsys, *args: str) -> str:
    """Run the CLI in-process; it must print one error line and return 2."""
    assert main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("repro: error: ")
    return line


#: The CLI flag that used to select a coding-buffer implementation, and the
#: ``RunConfig`` field it set.
REMOVED_FLAG = "--decode-engine"
REMOVED_FLAG_FIELD = REMOVED_FLAG.lstrip("-").replace("-", "_")


@pytest.mark.parametrize("field,value", [("engine", "legacy"),
                                         (REMOVED_FLAG_FIELD, "eager"),
                                         ("monitor", "true")])
def test_removed_run_knobs_are_rejected_as_overrides(field, value, capsys):
    """The deleted engine selectors and liveness-monitor switch die at the
    boundary, never silently."""
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--set", f"run.{field}={value}")
    assert f"unknown RunConfig field {field!r}" in line


def _spec_file_with_run(tmp_path, field: str, value) -> str:
    spec = get_preset("chain_smoke").to_dict()
    spec["run"][field] = value
    spec_file = tmp_path / "scenario.json"
    spec_file.write_text(json.dumps(spec))
    return str(spec_file)


def test_removed_run_knob_is_rejected_in_a_spec_file(capsys, tmp_path):
    for field, value in (("engine", "legacy"), ("monitor", True)):
        spec_file = _spec_file_with_run(tmp_path, field, value)
        line = _one_line_error(capsys, "run", "--spec", spec_file, "--no-cache")
        assert f"unknown RunConfig fields in scenario 'chain_smoke': [{field!r}]" in line


def test_removed_cli_flag_is_an_argparse_error(tmp_path):
    proc = repro_cli("run", "--preset", "chain_smoke", "--no-cache",
                     REMOVED_FLAG, "x", cwd=tmp_path)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {REMOVED_FLAG}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ("show", "--preset", "random_geometric_16", "--set", 'protocols=["Bogus"]'),
    ("run", "--preset", "random_geometric_16", "--no-cache",
     "--set", 'protocols=["MORE","Bogus"]'),
    ("run", "--preset", "chain_smoke", "--no-cache", "--set", "protocols=Bogus"),
    # Default worker count: caught while the sweep expands, before any worker starts.
    ("sweep", "--preset", "chain_smoke", "--no-cache", "--axis", "protocols=MORE,Bogus"),
], ids=["show", "run_after_a_good_token", "bare_string", "sweep_axis"])
def test_unknown_protocol_token_is_a_one_line_error(command, capsys, monkeypatch):
    """``show`` used to print the spec and exit 0; ``run`` ran every MORE flow
    first and only then named the token, from a list without ``Srcr/auto``."""
    def no_run(*args, **kwargs):
        raise AssertionError("a flow ran before the token was rejected")
    monkeypatch.setattr("repro.scenarios.execute.run_single_flow", no_run)
    line = _one_line_error(capsys, *command)
    assert "unknown protocol 'Bogus'" in line
    assert "expected one of ('MORE', 'ExOR', 'Srcr', 'Srcr/auto')" in line


def test_unknown_protocol_token_is_rejected_in_a_spec_file(capsys, tmp_path):
    spec = get_preset("chain_smoke").to_dict()
    spec["protocols"] = ["Srcr/auto", "Bogus"]
    spec_file = tmp_path / "scenario.json"
    spec_file.write_text(json.dumps(spec))
    for command in ("show", "run"):
        line = _one_line_error(capsys, command, "--spec", str(spec_file))
        assert "unknown protocol 'Bogus'" in line


@pytest.mark.parametrize("command", [
    ("run", "--preset", "chain_smoke", "--set", "topology.bogus=3"),
    ("run", "--preset", "fig_4_2", "--set", "workload.bogus=3"),
    ("run", "--preset", "multiflow_grid", "--set", "workload.bogus=3"),
    # Default worker count: the cells fail inside pool workers.
    ("sweep", "--preset", "chain_smoke", "--axis", "topology.bogus=1,2"),
], ids=["topology", "pairs", "flow_sets", "sweep_axis"])
def test_bad_topology_or_workload_parameter_is_a_one_line_error(command, capsys):
    """Same shape as a bad ``channel.*`` / ``mobility.*`` / ``faults.*``."""
    line = _one_line_error(capsys, *command, "--no-cache")
    section = command[-1].partition(".")[0]
    assert f"bad parameter for {section} " in line
    assert "unexpected keyword argument 'bogus'" in line


@pytest.mark.parametrize("section", ["channel", "mobility", "faults"])
def test_run_cannot_shadow_a_scenario_section(section, capsys, tmp_path):
    """``run.channel`` used to override the ``channel`` section silently; the
    sections are now the only home, so it is one more unknown field."""
    line = _one_line_error(capsys, "show", "--preset", "chain_smoke",
                           "--set", f'run.{section}={{"kind": "none"}}')
    assert f"unknown RunConfig field {section!r}" in line

    spec_file = _spec_file_with_run(tmp_path, section, {"kind": "none"})
    line = _one_line_error(capsys, "run", "--spec", spec_file, "--no-cache")
    assert "unknown RunConfig field" in line and section in line


def test_no_run_field_shadows_a_scenario_field():
    """What keeps the test above true for a section added tomorrow."""
    assert not ({f.name for f in fields(RunConfig)}
                & {f.name for f in fields(ScenarioSpec)})


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("total_packets", -5), ("packet_size", 0),
    ("max_relays", 0), ("max_duration", -1), ("coding_payload_size", -1),
    ("estimation_probes", -1), ("estimation_exponent", 0),
    # Wrong-typed values: these four were a TypeError traceback, exit 1 ...
    ("batch_size", "abc"), ("max_duration", "abc"), ("max_relays", "abc"),
    ("estimation_exponent", "nan"),
    # ... `true` ran 1-byte packets and reported a 6x gain, exit 0; the rest
    # ran to a normal-looking report (NaN: the text from --set, the float
    # from the spec file).
    ("packet_size", "true"), ("total_packets", 1.5), ("vector_only", "maybe"),
    ("refresh_period", float("nan")), ("progress_timeout", float("nan")),
])
def test_out_of_range_run_value_is_a_one_line_error(field, value, capsys, tmp_path,
                                                    deadline):
    """``run.batch_size=0`` used to hang; the others ran and reported nonsense."""
    override = f"run.{field}={value}"
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--set", override)
    assert f"{field} must " in line
    # Default worker count: the cells fail inside pool workers.
    line = _one_line_error(capsys, "sweep", "--preset", "chain_smoke", "--no-cache",
                           "--axis", f"{override},16")
    assert f"{field} must " in line
    spec_file = _spec_file_with_run(tmp_path, field, value)
    line = _one_line_error(capsys, "run", "--spec", spec_file, "--no-cache")
    assert f"{field} must " in line


@pytest.mark.parametrize("preset,override,message", [
    # numpy's "high - low < 0" before; area=0 ran a mesh with every node on one point.
    ("random_geometric_16", "topology.area=-1", "area must be positive"),
    ("random_geometric_16", "topology.area=0", "area must be positive"),
    # Ran no flow, printed an empty table and exited 0.
    ("random_geometric_16", "workload.count=0", "count must be at least 1"),
    ("multiflow_grid", "workload.flows_per_set=0", "flows_per_set must be at least 1"),
    ("multiflow_grid", "workload.set_count=0", "set_count must be at least 1"),
    # A ZeroDivisionError traceback before.
    ("fig_5_1", "topology.floors=0", "'indoor_testbed': floors must be at least 1"),
    # Ran a testbed squeezed onto a line; numpy's "high - low < 0" for -2.
    ("fig_5_1", "topology.floor_width=0", "floor_width must be positive"),
    ("fig_5_1", "topology.floor_depth=-2", "floor_depth must be positive"),
    # One node, or none, is no mesh: pair selection complained ("no reachable
    # pairs with the requested hop count"), or numpy ("negative dimensions").
    ("fig_5_1", "topology.node_count=1", "node_count must be at least 2"),
    ("random_geometric_16", "topology.node_count=1",
     "'random_geometric': node_count must be at least 2"),
    ("multiflow_grid", "topology.rows=0", "'grid': rows must be at least 1"),
    ("multiflow_grid", "topology.cols=-1", "cols must be at least 1"),
])
def test_out_of_range_section_value_is_a_one_line_error(preset, override, message,
                                                        capsys):
    line = _one_line_error(capsys, "run", "--preset", preset, "--no-cache",
                           "--set", override)
    assert "bad parameter for " in line
    assert message in line
    # Default worker count: the cells fail inside pool workers.
    line = _one_line_error(capsys, "sweep", "--preset", preset, "--no-cache",
                           "--axis", f"{override},7")
    assert message in line


@pytest.mark.parametrize("preset,override,message", [
    # Ran to completion: delivery "probabilities" scaled sevenfold.
    ("bursty_chain", "channel.bad_scale=7",
     "channel 'gilbert_elliott': need 0 <= bad_scale <= 1"),
    # Rejected before, as bare text naming neither section nor kind.
    ("bursty_chain", "channel.mean_good_time=0",
     "channel 'gilbert_elliott': state sojourn times must be positive"),
    ("mobile_mesh", "mobility.epoch_length=0",
     "mobility 'random_waypoint': epoch_length must be positive"),
    ("node_churn_mesh", "faults.mean_downtime=-1",
     "faults 'crash_recover': crash_recover holding-time means must be positive"),
    # NaN is neither positive nor ``<= 0``: it passed every such check.
    ("node_churn_mesh", "faults.mean_uptime=NaN", "holding-time means must be positive"),
    ("bursty_chain", "channel.mean_bad_time=NaN", "state sojourn times must be positive"),
])
def test_out_of_range_model_value_is_a_one_line_error(preset, override, message, capsys,
                                                      deadline):
    """``channel.*`` / ``mobility.*`` / ``faults.*`` values die at the door in the
    spelling ``topology.*`` / ``workload.*`` ones do."""
    line = _one_line_error(capsys, "run", "--preset", preset, "--no-cache",
                           "--set", override)
    section = override.partition(".")[0]
    assert f"bad parameter for {section} " in line
    assert message in line
    # Default worker count: the cells fail inside pool workers.
    line = _one_line_error(capsys, "sweep", "--preset", preset, "--no-cache",
                           "--axis", f"{override},-3")
    assert message in line


@pytest.mark.parametrize("section,kind,word", [
    ("channel", "distance_fading", "channel"),
    ("channel", "trace", "channel"),
    ("mobility", "random_walk", "mobility"),
    ("faults", "ack_blackout", "fault"),
    ("faults", "control_silence", "fault"),
])
def test_deleted_model_kind_is_an_unknown_kind(section, kind, word, capsys):
    """No alias survives a deleted kind: it is the one-line unknown-kind error."""
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           f"--{section}", kind)
    assert f"unknown {word} kind {kind!r}; expected one of (" in line


def test_workload_kind_error_names_the_plain_pair_kinds(capsys):
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--set", "workload.kind=challenged")
    assert "workload kind 'challenged' does not describe plain pairs" in line
    assert "('random_pairs', 'spatial_reuse', 'explicit')" in line
    assert "multiflow" not in line


@pytest.mark.parametrize("preset", ["chain_batch_sweep", "multiflow_scale", "grid_5x5",
                                    "fading_grid", "trace_random_geometric"])
def test_deleted_preset_is_an_unknown_preset(preset):
    """The message as the interpreter prints it, with exit status 1."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--preset", preset, "--no-cache"])
    (line,) = str(exit_info.value.code).splitlines()
    assert line.startswith(f"repro: error: unknown preset {preset!r}; ")


@pytest.mark.parametrize("preset,override,model", [
    ("bursty_chain", "channel.good_scale=1", "GilbertElliott"),
    ("mobile_mesh", "mobility.pause_time=0", "RandomWaypoint"),
    ("churn_chain", "mobility.symmetric=true", "MarkovLinkChurn"),
    ("node_churn_mesh", "faults.nodes=[1]", "CrashRecover"),
])
def test_fixed_model_parameter_is_a_bad_parameter(preset, override, model, capsys):
    """A parameter fixed at its old default is an unknown keyword, not ignored."""
    line = _one_line_error(capsys, "run", "--preset", preset, "--no-cache",
                           "--set", override)
    name = override.partition(".")[2].partition("=")[0]
    assert f"bad parameter for {override.partition('.')[0]} " in line
    assert f"{model}.__init__() got an unexpected keyword argument {name!r}" in line


def test_run_without_spec_or_preset_fails():
    proc = repro_cli("run")
    assert proc.returncode != 0
    assert "--preset" in proc.stderr


def test_sweep_caches_json_and_report_reads_it(tmp_path):
    proc = repro_cli("sweep", "--preset", "chain_smoke", "--workers", "2",
                     "--set", "run.total_packets=16", "--json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["scenario"] == "chain_smoke"
    assert payload["cells"]
    cache_files = list((tmp_path / "results" / "store" / "chain_smoke")
                       .glob("cell-*.json"))
    assert cache_files

    report = repro_cli("report", cwd=tmp_path)
    assert report.returncode == 0, report.stderr
    assert "chain_smoke" in report.stdout

    # Re-running the identical sweep is served from the cache.
    again = repro_cli("sweep", "--preset", "chain_smoke", "--workers", "2",
                      "--set", "run.total_packets=16", "--json", cwd=tmp_path)
    assert json.loads(again.stdout)["cached_cells"] == len(payload["cells"])


def test_sweep_accepts_spec_file_and_extra_axis(tmp_path):
    show = repro_cli("show", "--preset", "chain_smoke")
    spec_file = tmp_path / "scenario.json"
    spec_file.write_text(show.stdout)
    proc = repro_cli("sweep", "--spec", str(spec_file), "--no-cache",
                     "--set", "run.total_packets=16",
                     "--axis", "run.batch_size=8,16", "--seeds", "1,2",
                     cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[chain_smoke]") == 4  # 2 batch sizes x 2 seeds


def test_report_with_no_results_explains(tmp_path):
    proc = repro_cli("report", cwd=tmp_path)
    assert proc.returncode == 1
    assert "no cached results" in proc.stdout


@pytest.mark.parametrize("preset", ["fig_4_2", "fig_4_7"])
def test_show_paper_presets(preset):
    proc = repro_cli("show", "--preset", preset)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == preset


def test_figure_prints_each_report_then_one_line_per_claim(tmp_path, capsys):
    """Two views of one preset against one store simulate once, and a re-run
    simulates nothing and prints the same bytes."""
    command = ["figure", "figure_4_2", "figure_4_3", "--results-dir", str(tmp_path)]
    assert main(command) == 0
    first = capsys.readouterr()
    assert first.err.splitlines() == ["figure_4_2: 1 cell(s) simulated",
                                      "figure_4_3: 0 cell(s) simulated"]
    for name, block in zip(command[1:3], first.out.split("\n\n")):
        report, *claims = block.split("\n  ")
        assert report + "\n" == (Path(_SRC).parent / "results" / f"{name}.txt").read_text()
        assert [line.split(":")[0] for line in claims] \
            == [claim.id for claim in FIGURES[name].claims]
        assert all(line.endswith(" -- ok") for line in claims)

    assert main(command) == 0
    again = capsys.readouterr()
    assert again.out == first.out
    assert "1 cell(s)" not in again.err


def test_unknown_figure_is_a_one_line_error(capsys):
    line = _one_line_error(capsys, "figure", "figure_9_9", "--no-cache")
    assert "unknown figure 'figure_9_9'" in line and "figure_4_2" in line
