"""Dynamic-topology scenarios through the scenario layer: JSON, presets,
CLI, parallel, and the static-dynamics differential.

Covers the acceptance criteria of the mobility subsystem: every mobility
model is selectable via ScenarioSpec JSON and the CLI, every dynamic preset
replays deterministically at a fixed seed (same seed => identical epoch
realisations regardless of worker placement), parallel sweeps over the
staleness axis are bit-identical to serial ones, and — the differential —
``mobility=None`` with ``refresh_period=inf`` runs are bit-identical to the
pre-mobility tree, pinned against golden traces captured from it.
"""

from __future__ import annotations

import json

import pytest

from golden import key, load_golden, run_trace
from repro.cli import main
from repro.experiments.orchestrator import run_sweep
from repro.scenarios import (
    MOBILITY_KINDS,
    MobilitySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_topology,
    get_preset,
    run_cell,
)
from repro.topology.mobility import build_mobility_model

#: The dynamic presets and their mobility kind.
DYNAMIC_PRESETS = {
    "mobile_mesh": "random_waypoint",
    "churn_chain": "link_churn",
    "stale_state_sweep": "random_waypoint",
}

#: The static-dynamics differential: a build with the mobility subsystem
#: present but disabled must reproduce these golden traces (captured before
#: the subsystem existed, now entries of ``tests/golden_traces.json``).
GOLDEN_STATIC_RUNS = (
    ("bursty_chain", "MORE", 17),
    ("chain_smoke", "ExOR", 1),
    ("chain_smoke", "MORE", 1),
    ("chain_smoke", "Srcr", 1),
    ("random_geometric_16", "MORE", 5),
)


def _shrink(spec: ScenarioSpec) -> ScenarioSpec:
    """Scale a dynamic preset down to sub-second cells."""
    spec.run.update({"total_packets": 24, "batch_size": 8, "packet_size": 256,
                     "coding_payload_size": 16})
    if spec.workload.kind == "random_pairs":
        spec.workload.params["count"] = 2
    spec.protocols = ("MORE",)
    return spec


class TestSpecIntegration:
    def test_mobility_round_trips_through_json(self):
        spec = ScenarioSpec(
            name="json_mobility",
            topology=TopologySpec("grid", {"rows": 3, "cols": 3}),
            workload=WorkloadSpec("explicit", {"pairs": [[0, 8]]}),
            mobility=MobilitySpec("random_waypoint", {"speed_max": 3.0}),
            run={"refresh_period": 2.0},
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.mobility == spec.mobility
        assert clone == spec

    def test_old_json_without_mobility_loads_static(self):
        data = {
            "name": "legacy", "topology": {"kind": "chain", "params": {"hops": 2}},
            "workload": {"kind": "explicit", "params": {"pairs": [[0, 2]]}},
        }
        spec = ScenarioSpec.from_dict(data)
        assert spec.mobility == MobilitySpec()
        assert spec.environment().mobility == MobilitySpec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mobility kind"):
            ScenarioSpec(
                name="bad",
                topology=TopologySpec("chain", {"hops": 2}),
                workload=WorkloadSpec("explicit", {"pairs": [[0, 2]]}),
                mobility=MobilitySpec("levy_flight"),
            )

    def test_switching_kind_resets_stale_params(self):
        spec = get_preset("mobile_mesh")
        swapped = spec.with_overrides({"mobility.kind": "none"})
        assert swapped.mobility == MobilitySpec()
        kept = spec.with_overrides({"mobility.kind": "random_waypoint"})
        assert kept.mobility.params == spec.mobility.params
        with pytest.raises(ValueError, match="unknown mobility kind"):
            spec.with_overrides({"mobility.kind": "nope"})

    def test_mobility_overrides_and_sweep_axis(self):
        spec = get_preset("mobile_mesh")
        overridden = spec.with_overrides({"mobility.speed_max": 9.0})
        assert overridden.mobility.params["speed_max"] == 9.0
        assert spec.mobility.params["speed_max"] == 6.0  # original untouched
        spec.sweep["mobility.speed_max"] = (2.0, 8.0)
        cells = spec.expand()
        assert [cell.scenario.mobility.params["speed_max"] for cell in cells] \
            == [2.0, 8.0]
        assert len({cell.key() for cell in cells}) == 2

    def test_run_config_carries_mobility(self):
        """Not any more: the section itself is the run's environment."""
        spec = get_preset("churn_chain")
        assert spec.environment().mobility is spec.mobility
        assert not hasattr(spec.run_config(seed=3), "mobility")

    def test_build_mobility_dispatch(self):
        spec = get_preset("mobile_mesh")
        topology = build_topology(spec.topology)
        model = build_mobility_model(spec.mobility, seed=5)
        model.bind(topology)
        assert model.kind == "random_waypoint"
        assert model.seed == 5
        assert model.delivery_at(3).shape == (topology.node_count,
                                              topology.node_count)
        assert build_mobility_model(MobilitySpec(), seed=5) is None


class TestDynamicPresets:
    def test_presets_registered_with_expected_kinds(self):
        assert set(DYNAMIC_PRESETS) <= set(MOBILITY_KINDS) | {
            "mobile_mesh", "churn_chain", "stale_state_sweep"}
        for name, kind in DYNAMIC_PRESETS.items():
            spec = get_preset(name)
            assert spec.mobility.kind == kind
        sweep_values = get_preset("stale_state_sweep").sweep["run.refresh_period"]
        assert "inf" in sweep_values  # the never-refresh (stale) endpoint

    @pytest.mark.parametrize("name", sorted(DYNAMIC_PRESETS))
    def test_preset_replays_deterministically(self, name):
        """Same seed, same cell: byte-identical results on a re-run —
        i.e. identical epoch realisations regardless of query order."""
        spec = _shrink(get_preset(name))
        spec.sweep = {}
        clone = _shrink(get_preset(name))
        clone.sweep = {}
        first = run_cell(spec.expand()[0])
        again = run_cell(clone.expand()[0])
        assert first.to_dict() == again.to_dict()
        assert all(len(values) > 0 for values in first.series.values())

    def test_different_seeds_give_different_dynamics(self):
        spec = _shrink(get_preset("churn_chain"))
        spec.seeds = (1, 2)
        results = [run_cell(cell) for cell in spec.expand()]
        assert results[0].series != results[1].series


class TestStaleStateSweep:
    def _spec(self) -> ScenarioSpec:
        spec = _shrink(get_preset("stale_state_sweep"))
        spec.protocols = ("MORE", "Srcr")
        # Shrunk transfers last ~0.1-0.5 s: a 0.05 s refresh period still
        # lands several control-plane rebuilds inside each flow.
        spec.sweep["run.refresh_period"] = (0.05, "inf")
        return spec

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_sweep(self._spec(), workers=1, results_dir=None)
        parallel = run_sweep(self._spec(), workers=2, results_dir=None)
        assert [cell.to_dict() for cell in serial.cells] \
            == [cell.to_dict() for cell in parallel.cells]

    def test_staleness_axis_changes_results(self):
        """A finite refresh period must actually change protocol behaviour
        relative to compute-once plans (otherwise the axis is vacuous)."""
        cells = run_sweep(self._spec(), workers=1, results_dir=None).cells
        by_period = {cell.axes["run.refresh_period"]: cell for cell in cells}
        assert by_period[0.05].series != by_period["inf"].series


class TestStaticDynamicsDifferential:
    """mobility=None + refresh_period=inf == the pre-mobility tree, bit for bit."""

    @pytest.mark.parametrize("preset_name,protocol,seed", GOLDEN_STATIC_RUNS)
    def test_static_run_matches_golden_trace(self, preset_name, protocol, seed):
        spec = get_preset(preset_name)
        assert spec.mobility == MobilitySpec()
        assert spec.run_config(seed).refresh_period == float("inf")
        assert run_trace(preset_name, protocol, seed) \
            == load_golden()[key(preset_name, protocol, seed)]

    def test_explicit_static_config_equals_default(self):
        """Passing a static mobility / refresh_period=inf explicitly is the
        same code path as not mentioning dynamics at all."""
        from repro.experiments.runner import Environment, RunConfig, run_single_flow

        topology = build_topology(get_preset("chain_smoke").topology)
        base = dict(total_packets=16, batch_size=8, packet_size=256,
                    coding_payload_size=16, seed=1)
        default = run_single_flow(topology, "MORE", 0, 3,
                                  config=RunConfig(**base))
        explicit = run_single_flow(
            topology, "MORE", 0, 3,
            config=RunConfig(refresh_period="inf", **base),
            environment=Environment(mobility=MobilitySpec("none")))
        assert default == explicit


class TestCli:
    def test_mobility_flag_switches_model(self, capsys):
        assert main(["show", "--preset", "chain_smoke",
                     "--mobility", "link_churn",
                     "--set", "mobility.mean_down_time=0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mobility"] == {"kind": "link_churn",
                                    "params": {"mean_down_time": 0.5}}

    def test_mobility_flag_rejects_unknown_kind(self, capsys):
        assert main(["show", "--preset", "chain_smoke",
                     "--mobility", "bogus"]) == 2
        assert "unknown mobility kind" in capsys.readouterr().err

    def test_dynamic_preset_runs_from_cli(self, capsys):
        assert main(["run", "--preset", "churn_chain", "--no-cache",
                     "--set", "run.total_packets=16",
                     "--set", "run.batch_size=8",
                     "--set", "protocols=MORE", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["series"]["MORE"]

    def test_refresh_period_sweepable_from_cli(self, capsys):
        assert main(["sweep", "--preset", "churn_chain", "--no-cache",
                     "--workers", "1",
                     "--set", "run.total_packets=16",
                     "--set", "run.batch_size=8",
                     "--set", "protocols=MORE",
                     "--axis", "run.refresh_period=0.5,inf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        periods = [cell["axes"]["run.refresh_period"]
                   for cell in payload["cells"]]
        assert periods == [0.5, "inf"]

    def test_mobility_flag_disables_dynamics(self, capsys):
        """--mobility none on a dynamic preset must run clean and static."""
        assert main(["show", "--preset", "mobile_mesh",
                     "--mobility", "none"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mobility"] == {"kind": "none", "params": {}}
