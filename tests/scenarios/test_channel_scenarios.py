"""Channel models through the scenario layer: JSON, presets, CLI, parallel.

Every channel model is selectable via ScenarioSpec JSON and the CLI, a
preset runs every registered kind of every scenario section, every channel
preset replays deterministically at a fixed seed, and concurrent multiflow
cells under a non-static (Gilbert-Elliott) channel are bit-identical
between serial and parallel execution.
"""

from __future__ import annotations

import importlib
import json
import typing
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.orchestrator import run_sweep
from repro.scenarios import (
    WORKLOAD_KINDS,
    ChannelSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_topology,
    get_preset,
    list_presets,
    run_cell,
)
from repro.sim.channels import CHANNEL_MODELS, build_channel_model
from repro.sim.faults import FAULT_MODELS
from repro.topology.mobility import MOBILITY_MODELS

_REPO = Path(__file__).resolve().parents[2]

#: Every kind a scenario section can name, by section.
REGISTRIES = {
    "channel": tuple(CHANNEL_MODELS),
    "mobility": tuple(MOBILITY_MODELS),
    "faults": tuple(FAULT_MODELS),
    "workload": WORKLOAD_KINDS,
}

#: The kinds no preset runs, and the test file that runs each instead.
FIXTURE_KINDS = {("faults", "scheduled"): "tests/experiments/test_watchdog.py"}


def _preset_using(section: str, kind: str) -> str | None:
    """The first registered preset (by name) whose ``section`` is ``kind``."""
    return next((spec.name for spec in list_presets()
                 if getattr(spec, section).kind == kind), None)


def _shrink(spec: ScenarioSpec) -> ScenarioSpec:
    """Scale a preset down to a sub-second cell."""
    spec.run.update({"total_packets": 24, "batch_size": 8, "packet_size": 256,
                     "coding_payload_size": 16})
    if spec.workload.kind == "random_pairs":
        spec.workload.params["count"] = 2
    spec.protocols = ("MORE",)
    return spec


class TestSpecIntegration:
    def test_every_kind_selectable_via_json(self):
        for kind in sorted(CHANNEL_MODELS):
            spec = ScenarioSpec(
                name=f"json_{kind}",
                topology=TopologySpec("chain", {"hops": 3}),
                workload=WorkloadSpec("explicit", {"pairs": [[0, 3]]}),
                channel=ChannelSpec(kind),
            )
            clone = ScenarioSpec.from_json(spec.to_json())
            assert clone.channel == spec.channel
            assert clone == spec

    def test_channel_defaults_to_static_and_old_json_loads(self):
        data = {
            "name": "legacy", "topology": {"kind": "chain", "params": {"hops": 2}},
            "workload": {"kind": "explicit", "params": {"pairs": [[0, 2]]}},
        }
        spec = ScenarioSpec.from_dict(data)
        assert spec.channel == ChannelSpec()
        assert spec.environment().channel == ChannelSpec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ScenarioSpec(
                name="bad",
                topology=TopologySpec("chain", {"hops": 2}),
                workload=WorkloadSpec("explicit", {"pairs": [[0, 2]]}),
                channel=ChannelSpec("rician"),
            )

    def test_switching_kind_resets_stale_params(self):
        # bursty_chain carries gilbert_elliott params; swapping the kind
        # must not leak them into the new model's constructor.
        spec = get_preset("bursty_chain")
        swapped = spec.with_overrides({"channel.kind": "static"})
        assert swapped.channel == ChannelSpec()
        # Same kind: params survive (so kind + param overrides compose).
        kept = spec.with_overrides({"channel.kind": "gilbert_elliott"})
        assert kept.channel.params == spec.channel.params

    def test_channel_overrides_and_sweep_axis(self):
        spec = get_preset("bursty_chain")
        overridden = spec.with_overrides({"channel.bad_scale": 0.05})
        assert overridden.channel.params["bad_scale"] == 0.05
        assert spec.channel.params["bad_scale"] == 0.2  # original untouched
        switched = spec.with_overrides({"channel.kind": "static"})
        assert switched.channel.kind == "static"
        with pytest.raises(ValueError, match="unknown channel kind"):
            spec.with_overrides({"channel.kind": "nakagami"})
        spec.sweep["channel.bad_scale"] = (0.1, 0.4)
        cells = spec.expand()
        assert [cell.scenario.channel.params["bad_scale"] for cell in cells] \
            == [0.1, 0.4]
        assert len({cell.key() for cell in cells}) == 2

    def test_run_config_carries_channel(self):
        """Not any more: the section itself is the run's environment."""
        spec = get_preset("bursty_chain")
        assert spec.environment().channel is spec.channel
        assert not hasattr(spec.run_config(seed=3), "channel")

    def test_build_channel_dispatch(self):
        spec = get_preset("bursty_chain")
        topology = build_topology(spec.topology)
        model = build_channel_model(spec.channel, seed=5)
        model.bind(topology)
        assert model.kind == "gilbert_elliott"
        assert model.seed == 5
        assert model.delivery_row(0, 0.0, 0.002).shape == (topology.node_count,)


@pytest.mark.parametrize("model", [model for registry in
                                   (CHANNEL_MODELS, MOBILITY_MODELS, FAULT_MODELS)
                                   for model in registry.values()],
                         ids=lambda model: model.kind)
def test_model_constructor_type_hints_resolve(model):
    """A constructor annotation naming an unimported type is a NameError here."""
    assert "seed" in typing.get_type_hints(model.__init__)


@pytest.mark.parametrize("module,name", [
    ("repro.sim.channels", "DistanceFading"),
    ("repro.sim.channels", "TraceDriven"),
    ("repro.topology.mobility", "RandomWalk"),
    ("repro.sim.faults", "AckBlackout"),
    ("repro.sim.faults", "ControlSilence"),
    ("repro.experiments.workloads", "challenged_pairs"),
])
def test_deleted_model_does_not_import(module, name):
    """A deleted kind leaves no class, alias or shim behind."""
    assert not hasattr(importlib.import_module(module), name)


class TestChannelPresets:
    @pytest.mark.parametrize("section", sorted(REGISTRIES))
    def test_one_preset_per_model(self, section):
        """A kind no preset, claim or fixture runs is dead code: the table
        cannot regrow one unseen."""
        for kind in REGISTRIES[section]:
            fixture = FIXTURE_KINDS.get((section, kind))
            if fixture is None:
                assert _preset_using(section, kind), f"no preset runs {section} {kind!r}"
            else:
                assert f'"{kind}"' in (_REPO / fixture).read_text(encoding="utf-8")

    @pytest.mark.parametrize("kind", sorted(CHANNEL_MODELS))
    def test_preset_runs_and_replays_deterministically(self, kind):
        """Same seed, same cell: byte-identical results on a re-run."""
        spec = _shrink(get_preset(_preset_using("channel", kind)))
        cell = spec.expand()[0]
        first = run_cell(cell)
        again = run_cell(spec.expand()[0])
        assert first.to_dict() == again.to_dict()
        assert all(len(values) > 0 for values in first.series.values())

    def test_different_seeds_give_different_bursty_results(self):
        spec = _shrink(get_preset("bursty_chain"))
        spec.seeds = (1, 2)
        cells = spec.expand()
        results = [run_cell(cell) for cell in cells]
        assert results[0].series != results[1].series


class TestMultiflowBursty:
    """Concurrent multiflow cells under a non-static channel."""

    def _spec(self) -> ScenarioSpec:
        spec = get_preset("multiflow_bursty")
        spec.workload.params["set_count"] = 1
        spec.run.update({"total_packets": 24, "batch_size": 8})
        spec.sweep["workload.flow_count"] = (1, 2)
        return spec

    def test_parallel_matches_serial_bit_for_bit(self):
        spec = self._spec()
        serial = run_sweep(spec, workers=1, results_dir=None)
        parallel = run_sweep(spec, workers=2, results_dir=None)
        assert [cell.to_dict() for cell in serial.cells] \
            == [cell.to_dict() for cell in parallel.cells]

    def test_fixed_seed_replay_is_deterministic(self):
        spec = self._spec()
        first = run_sweep(spec, workers=1, results_dir=None)
        again = run_sweep(self._spec(), workers=2, results_dir=None)
        assert [cell.to_dict() for cell in first.cells] \
            == [cell.to_dict() for cell in again.cells]


class TestCli:
    def test_channel_flag_switches_model(self, capsys):
        assert main(["show", "--preset", "chain_smoke",
                     "--channel", "gilbert_elliott",
                     "--set", "channel.bad_scale=0.1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["channel"] == {"kind": "gilbert_elliott",
                                   "params": {"bad_scale": 0.1}}

    def test_channel_flag_rejects_unknown_kind(self, capsys):
        assert main(["show", "--preset", "chain_smoke",
                     "--channel", "bogus"]) == 2
        assert "unknown channel kind" in capsys.readouterr().err

    def test_channel_flag_swaps_away_from_param_preset(self, capsys):
        """--channel static on a preset with channel params must run clean."""
        assert main(["run", "--preset", "bursty_chain", "--no-cache",
                     "--channel", "static", "--set", "run.total_packets=16",
                     "--set", "run.batch_size=8", "--set", "protocols=MORE",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["series"]["MORE"]

    def test_channel_flag_composes_with_set_params(self, capsys):
        """--channel KIND then --set channel.<param> lands on the model; the
        preset's own kind keeps its params."""
        assert main(["show", "--preset", "bursty_chain",
                     "--channel", "gilbert_elliott",
                     "--set", "channel.mean_bad_time=0.25"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["channel"] == {"kind": "gilbert_elliott",
                                   "params": {"bad_scale": 0.2, "mean_good_time": 0.5,
                                              "mean_bad_time": 0.25}}

    def test_run_with_channel_flag(self, capsys, tmp_path):
        assert main(["run", "--preset", "chain_smoke", "--no-cache",
                     "--channel", "gilbert_elliott", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["series"]

    def test_sweep_channel_axis(self, capsys):
        assert main(["sweep", "--preset", "bursty_chain", "--no-cache",
                     "--set", "run.total_packets=16", "--set", "run.batch_size=8",
                     "--set", "protocols=MORE", "--workers", "1",
                     "--axis", "channel.bad_scale=0.1,0.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [cell["axes"] for cell in payload["cells"]] \
            == [{"channel.bad_scale": 0.1}, {"channel.bad_scale": 0.5}]
