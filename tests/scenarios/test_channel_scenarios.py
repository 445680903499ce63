"""Channel models through the scenario layer: JSON, presets, CLI, parallel.

Covers the acceptance criteria of the channel-subsystem refactor: all four
channel models are selectable via ScenarioSpec JSON and the CLI, every
channel preset replays deterministically at a fixed seed, and concurrent
multiflow cells under a non-static (Gilbert-Elliott) channel are
bit-identical between serial and parallel execution.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.orchestrator import run_sweep
from repro.scenarios import (
    ChannelSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_topology,
    get_preset,
    run_cell,
)
from repro.sim.channels import CHANNEL_MODELS, build_channel_model

#: One registered preset per channel model kind.
CHANNEL_PRESETS = {
    "static": "chain_smoke",
    "gilbert_elliott": "bursty_chain",
    "distance_fading": "fading_grid",
    "trace": "trace_random_geometric",
}


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
            params = {"series": {"0-1": [0.5]}} if kind == "trace" else {}
            spec = ScenarioSpec(
                name=f"json_{kind}",
                topology=TopologySpec("chain", {"hops": 3}),
                workload=WorkloadSpec("explicit", {"pairs": [[0, 3]]}),
                channel=ChannelSpec(kind, params),
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
        spec = get_preset("fading_grid")
        topology = build_topology(spec.topology)
        model = build_channel_model(spec.channel, seed=5)
        model.bind(topology)
        assert model.kind == "distance_fading"
        assert model.seed == 5
        assert model.delivery_row(0, 0.0, 0.002).shape == (topology.node_count,)


class TestChannelPresets:
    def test_one_preset_per_model(self):
        assert set(CHANNEL_PRESETS) == set(CHANNEL_MODELS)
        for kind, name in CHANNEL_PRESETS.items():
            assert get_preset(name).channel.kind == kind

    @pytest.mark.parametrize("kind", sorted(CHANNEL_PRESETS))
    def test_preset_runs_and_replays_deterministically(self, kind):
        """Same seed, same cell: byte-identical results on a re-run."""
        spec = _shrink(get_preset(CHANNEL_PRESETS[kind]))
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
        """--channel KIND then --set channel.<param> lands on the new model."""
        assert main(["show", "--preset", "chain_smoke",
                     "--channel", "distance_fading",
                     "--set", "channel.coherence_time=0.25"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["channel"] == {"kind": "distance_fading",
                                   "params": {"coherence_time": 0.25}}

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
