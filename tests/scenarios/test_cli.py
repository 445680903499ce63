"""CLI smoke tests: ``python -m repro list/show/run/sweep/report``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro import cli
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


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_vector_only_has_no_flag_of_its_own(verb, capsys):
    """``--set run.vector_only=true`` is the one way to ask for it."""
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--preset", "chain_smoke", "--no-cache", "--vector-only"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --vector-only" in capsys.readouterr().err


@pytest.mark.parametrize("verb,entry", [("run", "run_scenario"), ("sweep", "run_sweep")])
def test_no_cache_reaches_the_orchestrator_as_no_results_dir(verb, entry, tmp_path,
                                                             monkeypatch, capsys):
    """``--no-cache`` is ``results_dir=None`` alone, even beside an explicit
    ``--results-dir``; without it that directory is read and written."""
    calls = []
    real = getattr(cli, entry)

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, entry, recording)
    results_dir = tmp_path / "results"
    command = [verb, "--preset", "chain_smoke", "--set", "run.total_packets=16",
               "--workers", "1", "--results-dir", str(results_dir)]
    assert main([*command, "--no-cache"]) == 0
    assert calls[-1]["results_dir"] is None and "cache" not in calls[-1]
    assert not results_dir.exists()
    assert main(command) == 0
    assert calls[-1]["results_dir"] == str(results_dir)
    assert list(results_dir.glob("store/chain_smoke/cell-*.json"))
    capsys.readouterr()


_UNKNOWN_PROTOCOL = ("unknown protocol 'Bogus'; expected one of "
                     "('MORE', 'ExOR', 'Srcr', 'Srcr/auto')")


@pytest.mark.parametrize("command, message", [
    (("show", "--preset", "random_geometric_16", "--set", 'protocols=["Bogus"]'),
     _UNKNOWN_PROTOCOL),
    (("run", "--preset", "random_geometric_16", "--no-cache",
      "--set", 'protocols=["MORE","Bogus"]'), _UNKNOWN_PROTOCOL),
    (("run", "--preset", "chain_smoke", "--no-cache", "--set", "protocols=Bogus"),
     _UNKNOWN_PROTOCOL),
    # Default worker count: caught while the sweep expands, before any worker starts.
    (("sweep", "--preset", "chain_smoke", "--no-cache", "--axis", "protocols=MORE,Bogus"),
     _UNKNOWN_PROTOCOL),
    # Simulated MORE twice for one series.
    (("run", "--preset", "chain_smoke", "--no-cache", "--set", 'protocols=["MORE","MORE"]'),
     "protocol 'MORE' is listed twice in protocols"),
    (("show", "--preset", "chain_smoke", "--set", 'protocols=["Srcr","Srcr/auto","Srcr"]'),
     "protocol 'Srcr' is listed twice in protocols"),
    # Printed an empty table and exited 0.
    (("sweep", "--preset", "chain_smoke", "--no-cache", "--workers", "1",
      "--set", "protocols=[]"), "protocols must name at least one protocol, got []"),
], ids=["show", "run_after_a_good_token", "bare_string", "sweep_axis", "repeated",
        "repeated_show", "empty"])
def test_unknown_protocol_token_is_a_one_line_error(command, message, capsys, monkeypatch):
    """``show`` used to print the spec and exit 0; ``run`` ran every MORE flow
    first and only then named the token, from a list without ``Srcr/auto``."""
    def no_run(*args, **kwargs):
        raise AssertionError("a flow ran before the token was rejected")
    monkeypatch.setattr("repro.scenarios.execute.run_single_flow", no_run)
    line = _one_line_error(capsys, *command)
    assert line == f"repro: error: {message}"


@pytest.mark.parametrize("arguments, spec_change, message", [
    # Two cells under one store key, which a figure pools as one sample.
    (("--seeds", "1,1"), {}, "seeds lists 1 twice"),
    (("--axis", "run.batch_size=8,8"), {}, "sweep axis 'run.batch_size' lists 8 twice"),
    ((), {"seeds": [2, 3, 2]}, "seeds lists 2 twice"),
    (("--axis", "protocols=MORE,Srcr,MORE"), {}, "sweep axis 'protocols' lists 'MORE' twice"),
    (("--channel", "gilbert_elliott", "--axis", "channel.bad_scale=0.2,0.2"), {},
     "sweep axis 'channel.bad_scale' lists 0.2 twice"),
    # Reported "0 cells" and exited 0.
    ((), {"seeds": []}, "seeds must list at least one value, got []"),
    ((), {"sweep": {"run.batch_size": []}},
     "sweep axis 'run.batch_size' must list at least one value, got []"),
    # Printed int()'s "invalid literal for int() with base 10: 'a'".
    (("--seeds", "a"), {}, "--seeds must be comma-separated integers, got 'a'"),
    (("--seeds", "1,,2"), {}, "--seeds must be comma-separated integers, got '1,,2'"),
], ids=["seeds_flag", "axis_flag", "spec_seeds", "protocols_axis", "model_axis",
        "no_seeds", "empty_axis", "seeds_not_integers", "seeds_empty_item"])
def test_empty_or_repeated_seeds_and_axis_values_are_a_one_line_error(
        arguments, spec_change, message, capsys, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before the sweep was rejected")
    monkeypatch.setattr("repro.scenarios.execute.run_single_flow", no_run)
    spec = get_preset("chain_smoke").to_dict()
    spec.update(spec_change)
    spec_file = tmp_path / "scenario.json"
    spec_file.write_text(json.dumps(spec))
    line = _one_line_error(capsys, "sweep", "--spec", str(spec_file), "--no-cache",
                           "--workers", "1", *arguments)
    assert line == f"repro: error: {message}"
    if not arguments:
        line = _one_line_error(capsys, "run", "--spec", str(spec_file), "--no-cache")
        assert line == f"repro: error: {message}"


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


@pytest.mark.parametrize("fault, node", [
    (("scheduled", 'faults.downs={"99": [[0.0, 5.0]]}'), 99),
    (("scheduled", 'faults.downs={"-1": [[0.0, 5.0]]}'), -1),
    (("crash_recover", "faults.protect=[0, 3, 42]"), 42),
], ids=["scheduled_too_high", "scheduled_negative", "protect_too_high"])
def test_fault_on_a_node_outside_the_mesh_is_a_one_line_error(fault, node, capsys):
    """The 4-node chain has no such node: the run stops instead of running
    without the fault."""
    kind, assignment = fault
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--faults", kind, "--set", assignment)
    assert line == (f"repro: error: bad parameter for faults {kind!r}: "
                    f"node ids [{node}] are not in [0, 4)")


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
    # Ran to completion although no MORE header can carry K above 255.
    ("batch_size", 256),
    ("max_relays", 0), ("max_duration", -1), ("coding_payload_size", -1),
    ("estimation_probes", -1), ("estimation_exponent", 0),
    # Above 1 ran as a perfectly informed control plane without probes and
    # died mid-run inside the estimator with them.
    ("estimation_exponent", 1.5),
    # Wrong-typed values: these four were a TypeError traceback, exit 1 ...
    ("batch_size", "abc"), ("max_duration", "abc"), ("max_relays", "abc"),
    ("estimation_exponent", "nan"),
    # ... `true` ran 1-byte packets and reported a 6x gain, exit 0; the rest
    # ran to a normal-looking report (NaN: the text from --set, the float
    # from the spec file).
    ("packet_size", "true"), ("total_packets", 1.5), ("vector_only", "maybe"),
    ("refresh_period", float("nan")), ("progress_timeout", float("nan")),
    # Ran Srcr and ExOR to completion and died only at MORE's plan time.
    ("more_metric", "foo"),
    # Coded payloads larger than the frame they ride in (chain_smoke's
    # packet_size is 256).
    ("coding_payload_size", 257),
    # No 802.11b rate: ran every protocol at 0.00 pkt/s and printed a "nanx" gain.
    ("bitrate", 3),
    # numpy's bare "expected non-negative integer", naming no field.
    ("seed", -1),
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
    # numpy's "high - low range exceeds valid bounds" traceback, exit 1.
    ("random_geometric_16", "topology.area=Infinity",
     "'random_geometric': area must be positive and finite, got inf"),
    ("fig_5_1", "topology.floor_width=Infinity",
     "'indoor_testbed': floor_width must be positive and finite"),
    ("fig_5_1", "topology.floor_depth=Infinity", "floor_depth must be positive and finite"),
    # numpy's bare "expected non-negative integer", naming no parameter.
    ("random_geometric_16", "topology.seed=-1",
     "'random_geometric': seed must not be negative, got -1"),
    ("fig_5_1", "topology.seed=-1", "'indoor_testbed': seed must not be negative"),
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
    # The explicit workload read `pairs` alone: these ran unchanged ...
    ("chain_smoke", "workload.count=0",
     "'explicit': unknown parameter 'count'; it takes only 'pairs'"),
    ("chain_smoke", "workload.bogus=1", "'explicit': unknown parameter 'bogus'"),
    # ... and no pairs ran a cell with n=0 that reported nan series.
    ("chain_smoke", "workload.pairs=[]",
     "'explicit': pairs must be a non-empty list, got []"),
    # An AttributeError traceback, exit 1: the pair selection took it for a
    # channel configuration.
    ("fig_4_4", "workload.channel=1", "bad parameter for workload 'spatial_reuse'"),
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


def _random_mesh_spec_file(tmp_path, params: dict) -> str:
    spec = get_preset("chain_smoke").to_dict()
    spec["topology"] = {"kind": "random_mesh", "params": {"node_count": 6, **params}}
    spec_file = tmp_path / "scenario.json"
    spec_file.write_text(json.dumps(spec))
    return str(spec_file)


@pytest.mark.parametrize("params,message", [
    # One node was a mesh; no nodes died in numpy.
    ({"node_count": 1}, "node_count must be at least 2"),
    # 1.5 linked every pair; 0 re-rolled 200 times, then a RuntimeError
    # traceback left ``repro run``.
    ({"density": 1.5}, "density must lie in (0, 1], got 1.5"),
    ({"node_count": 2, "density": 0}, "density must lie in (0, 1], got 0"),
    # numpy's "high - low < 0", or probabilities outside [0, 1].
    ({"min_delivery": 0.9, "max_delivery": 0.5},
     "need 0 <= min_delivery <= max_delivery <= 1, got 0.9 and 0.5"),
    ({"min_delivery": -0.5}, "need 0 <= min_delivery <= max_delivery <= 1"),
    ({"max_delivery": 2.0}, "need 0 <= min_delivery <= max_delivery <= 1"),
    # A density no layout connects at: a RuntimeError traceback before.
    ({"node_count": 12, "density": 0.01}, "no connected mesh in 200 attempts"),
])
def test_bad_random_mesh_is_a_one_line_error(params, message, capsys, tmp_path):
    line = _one_line_error(capsys, "run", "--spec", _random_mesh_spec_file(tmp_path, params),
                           "--no-cache")
    assert "bad parameter for topology 'random_mesh'" in line
    assert message in line


def test_negative_skip_delivery_is_a_one_line_error(capsys):
    """A negative skip link was silently left out of the chain."""
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--set", "topology.skip_delivery=-0.2")
    assert "bad parameter for topology 'chain': skip_delivery must not be negative" in line


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
    # --set parses JSON, so Infinity arrives as inf: the stationary share
    # T/(T+T') was NaN, which switched the medium's carrier sense and
    # interference off under Gilbert-Elliott and started every churned link
    # down; both ran to exit 0.
    ("bursty_chain", "channel.mean_good_time=Infinity",
     "channel 'gilbert_elliott': state sojourn times must be positive and finite"),
    ("bursty_chain", "channel.mean_bad_time=Infinity", "must be positive and finite"),
    ("churn_chain", "mobility.mean_up_time=Infinity",
     "mobility 'link_churn': state sojourn times must be positive and finite"),
    ("churn_chain", "mobility.mean_down_time=Infinity", "must be positive and finite"),
    # Died mid-run: an infinite speed or arena overflowed a waypoint leg
    # (OverflowError), an infinite epoch indexed past a node's legs
    # (IndexError).
    ("mobile_mesh", "mobility.speed_max=Infinity",
     "mobility 'random_waypoint': need 0 < speed_min <= speed_max < inf"),
    ("mobile_mesh", "mobility.area=Infinity", "area must be positive and finite"),
    ("mobile_mesh", "mobility.epoch_length=Infinity",
     "epoch_length must be positive and finite"),
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


@pytest.mark.parametrize("pairs", [
    "[[0,99]]",  # an IndexError traceback from the agent set-up
    "[[1,1]]",   # simulated every protocol to max_duration for 0 pkt/s
    "[[0]]",     # "not enough values to unpack"
])
def test_malformed_explicit_pair_is_a_one_line_error(pairs, capsys):
    line = _one_line_error(capsys, "run", "--preset", "chain_smoke", "--no-cache",
                           "--set", "workload.kind=explicit", "--set", f"workload.pairs={pairs}")
    assert line == (f"repro: error: bad parameter for workload 'explicit': pair "
                    f"{json.loads(pairs)[0]!r} is not two distinct node ids in [0, 4)")


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


@pytest.mark.parametrize("flag,value,message", [
    # The watchdog recycled every busy worker at its first poll: a
    # SweepError traceback, "worker timed out after 0.0s", exit 1.
    ("--cell-timeout", "0", "cell_timeout must be above 0"),
    ("--cell-timeout", "-1", "cell_timeout must be above 0"),
    # Silently never fired.
    ("--cell-timeout", "nan", "cell_timeout must be above 0"),
    ("--retries", "-1", "retries must be at least 0"),
])
def test_bad_sweep_watchdog_setting_is_a_one_line_error(flag, value, message, capsys):
    line = _one_line_error(capsys, "sweep", "--preset", "fig_4_4", "--no-cache",
                           "--workers", "2", flag, value)
    assert message in line


@pytest.mark.parametrize("command", [
    ("sweep", "--preset", "chain_smoke"),
    ("run", "--preset", "chain_smoke"),
    ("figure", "figure_5_1"),
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_count_below_one_is_a_one_line_error(command, workers, capsys):
    """It ran serially, exited 0 and reported "with 1 worker(s)"."""
    line = _one_line_error(capsys, *command, "--no-cache", "--workers", workers)
    assert line == f"repro: error: workers must be at least 1, got {workers}"


def test_sweep_progress_goes_to_stderr_only(tmp_path):
    """``--progress --json``: stdout is the JSON alone, stderr the status lines."""
    proc = repro_cli("sweep", "--preset", "crash_recover_sweep", "--workers", "2",
                     "--no-cache", "--progress", "--json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["cells"]) == 3
    last = proc.stderr.splitlines()[-1].split(" | ")
    assert last[:2] == ["sweep crash_recover_sweep: 3/3 cells", "0 cached"]
    assert last[2].endswith(" cells/s")
    assert len(last) == 4  # the running means; no ETA once done, no retries


def test_run_seed_pins_one_replication_seed():
    """``--seed 3`` runs one cell per swept value, every one at seed 3."""
    proc = repro_cli("run", "--preset", "crash_recover_sweep", "--seed", "3",
                     "--no-cache", "--json")
    assert proc.returncode == 0, proc.stderr
    cells = json.loads(proc.stdout)["cells"]
    assert [cell["seed"] for cell in cells] == [3, 3, 3]
    assert [cell["axes"]["faults.mean_uptime"] for cell in cells] == [2, 6, 18]


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
