"""ScenarioSpec schema: round-trip, overrides, expansion, run-config rules."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from repro.experiments.orchestrator.store import spec_hash
from repro.experiments.runner import PROTOCOLS, RunConfig
from repro.scenarios import (
    MIN_BATCHES_PER_TRANSFER,
    ScenarioCell,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.radio import SUPPORTED_RATES


@pytest.fixture
def sweep_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="unit",
        description="unit-test scenario",
        topology=TopologySpec("chain", {"hops": 3, "link_delivery": 0.7}),
        workload=WorkloadSpec("explicit", {"pairs": [[0, 3]]}),
        protocols=("MORE", "Srcr"),
        run={"total_packets": 32, "batch_size": 8},
        seeds=(1, 2),
        sweep={"run.batch_size": (8, 16), "workload.count": (1, 2, 3)},
    )


class TestRoundTrip:
    def test_dict_round_trip(self, sweep_spec):
        clone = ScenarioSpec.from_dict(sweep_spec.to_dict())
        assert clone == sweep_spec

    def test_json_round_trip(self, sweep_spec):
        clone = ScenarioSpec.from_json(sweep_spec.to_json())
        assert clone == sweep_spec
        # JSON form is pure data: a second round-trip is byte-identical.
        assert clone.to_json() == sweep_spec.to_json()

    def test_cell_round_trip(self, sweep_spec):
        cell = sweep_spec.expand()[0]
        clone = ScenarioCell.from_dict(cell.to_dict())
        assert clone == cell
        assert clone.key() == cell.key()

    def test_cell_file_with_an_index_still_loads(self, sweep_spec):
        # Stored cells written before ScenarioCell lost its ``index`` carry
        # one; it is ignored, and the cache key does not move.
        cell = sweep_spec.expand()[1]
        data = cell.to_dict()
        assert "index" not in data
        clone = ScenarioCell.from_dict({**data, "index": 1})
        assert clone == cell
        assert clone.key() == cell.key()


class TestOverrides:
    def test_run_override(self, sweep_spec):
        spec = sweep_spec.with_overrides({"run.batch_size": 64})
        assert spec.run["batch_size"] == 64
        assert sweep_spec.run["batch_size"] == 8  # original untouched

    def test_workload_and_topology_overrides(self, sweep_spec):
        spec = sweep_spec.with_overrides({
            "workload.kind": "random_pairs",
            "workload.count": 5,
            "topology.hops": 6,
        })
        assert spec.workload.kind == "random_pairs"
        assert spec.workload.params["count"] == 5
        assert spec.topology.params["hops"] == 6

    def test_protocols_and_mode_overrides(self, sweep_spec):
        spec = sweep_spec.with_overrides({"protocols": ["MORE"], "mode": "gap"})
        assert spec.protocols == ("MORE",)
        assert spec.mode == "gap"

    def test_protocols_bare_string_means_one_protocol(self, sweep_spec):
        # `--set protocols=MORE` must not explode into ('M', 'O', 'R', 'E').
        assert sweep_spec.with_overrides({"protocols": "MORE"}).protocols == ("MORE",)
        data = sweep_spec.to_dict()
        data["protocols"] = "Srcr"
        assert ScenarioSpec.from_dict(data).protocols == ("Srcr",)

    def test_unknown_protocol_token_rejected_wherever_it_enters(self, sweep_spec):
        from repro.scenarios.execute import _resolve_protocol
        from repro.scenarios.spec import PROTOCOL_TOKENS

        with pytest.raises(ValueError, match="unknown protocol 'More'"):
            sweep_spec.with_overrides({"protocols": ["MORE", "More"]})
        data = sweep_spec.to_dict()
        data["protocols"] = ["Srcr/auto", "exor"]
        with pytest.raises(ValueError, match=r"unknown protocol 'exor'.*'Srcr/auto'"):
            ScenarioSpec.from_dict(data)
        sweep_spec.sweep["protocols"] = ("MORE", "Bogus")
        with pytest.raises(ValueError, match="unknown protocol 'Bogus'"):
            sweep_spec.expand()
        # Every accepted token resolves to a protocol the runner knows.
        base = sweep_spec.run_config(1)
        assert {_resolve_protocol(token, base)[0] for token in PROTOCOL_TOKENS} \
            == set(PROTOCOLS)
        assert _resolve_protocol("Srcr/auto", base)[1].srcr_autorate
        assert _resolve_protocol("Srcr", base)[1] is base

    def test_from_dict_missing_required_fields(self, sweep_spec):
        data = sweep_spec.to_dict()
        del data["topology"]
        with pytest.raises(ValueError, match="missing required"):
            ScenarioSpec.from_dict(data)
        bad_workload = sweep_spec.to_dict()
        del bad_workload["workload"]["kind"]
        with pytest.raises(ValueError, match="'kind'"):
            ScenarioSpec.from_dict(bad_workload)

    @pytest.mark.parametrize("path", ["nope.thing", "run", "run.not_a_field",
                                      "topology", "protocols.More"])
    def test_invalid_paths_raise(self, sweep_spec, path):
        with pytest.raises(ValueError):
            sweep_spec.with_overrides({path: 1})

    def test_unknown_mode_rejected(self, sweep_spec):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", topology=sweep_spec.topology,
                         workload=sweep_spec.workload, mode="bogus")


class TestExpansion:
    def test_cartesian_product_times_seeds(self, sweep_spec):
        cells = sweep_spec.expand()
        assert len(cells) == 2 * 3 * 2  # two axes (2x3 values) x two seeds

    def test_cells_are_fully_resolved(self, sweep_spec):
        for cell in sweep_spec.expand():
            assert cell.scenario.sweep == {}
            assert cell.scenario.seeds == (cell.seed,)
            for path, value in cell.axes.items():
                if path == "run.batch_size":
                    assert cell.scenario.run["batch_size"] == value

    def test_expansion_is_deterministic(self, sweep_spec):
        first = [cell.key() for cell in sweep_spec.expand()]
        second = [cell.key() for cell in sweep_spec.expand()]
        assert first == second
        assert len(set(first)) == len(first)  # keys distinguish every cell

    def test_a_repeated_list_value_is_refused(self, sweep_spec):
        """Axis values may be lists (pair sets): a repeat is found by
        equality, with no hashing."""
        sweep_spec.sweep = {"workload.pairs": ([[0, 3]], [[0, 2]], [[0, 3]])}
        with pytest.raises(ValueError, match=r"^sweep axis 'workload.pairs' lists "
                                             r"\[\[0, 3\]\] twice$"):
            sweep_spec.expand()
        sweep_spec.sweep = {"workload.pairs": ([[0, 3]], [[0, 2]])}
        assert [cell.axes for cell in sweep_spec.expand()[::2]] == [
            {"workload.pairs": [[0, 3]]}, {"workload.pairs": [[0, 2]]}]

    def test_key_changes_with_content(self, sweep_spec):
        base = sweep_spec.expand()[0]
        other_spec = sweep_spec.with_overrides({"run.total_packets": 48})
        other = other_spec.expand()[0]
        assert base.key() != other.key()


def _another(name, value):
    """A valid value of field ``name``, of ``value``'s type, that is not ``value``."""
    if name == "bitrate":  # one of the 802.11b rates
        return next(rate for rate in SUPPORTED_RATES if rate != value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        # Halved: every float field is positive, and estimation_exponent
        # must stay at most 1.
        return value / 2 if math.isfinite(value) else 2.0
    return {"etx": "eotx", None: 3}[value]  # more_metric, max_relays


class TestRunConfig:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_every_field_is_overridable_round_trips_and_keys_the_cache(
            self, name, sweep_spec):
        """What makes a new ``RunConfig`` field sweepable, resumable and safe to
        cache with no edit elsewhere — or fails here, naming it."""
        value = _another(name, getattr(sweep_spec.run_config(), name))
        changed = sweep_spec.with_overrides({f"run.{name}": value})
        assert getattr(changed.run_config(), name) == value
        reloaded = ScenarioSpec.from_json(changed.to_json())
        assert getattr(reloaded.run_config(), name) == value

        def key(spec):
            return spec_hash(ScenarioCell(scenario=spec, seed=1))
        assert key(changed) != key(sweep_spec)
        assert key(reloaded) == key(changed)

    def test_seed_defaults_to_cell_seed(self, sweep_spec):
        assert sweep_spec.run_config(seed=9).seed == 9

    def test_pinned_seed_wins(self, sweep_spec):
        spec = sweep_spec.with_overrides({"run.seed": 5})
        assert spec.run_config(seed=9).seed == 5

    def test_min_batches_rule(self, sweep_spec):
        spec = sweep_spec.with_overrides({"run.batch_size": 64})
        config = spec.run_config(seed=1)
        assert config.total_packets == MIN_BATCHES_PER_TRANSFER * 64

    def test_matches_plain_runconfig_when_rule_inactive(self, sweep_spec):
        config = sweep_spec.run_config(seed=3)
        assert config == RunConfig(total_packets=32, batch_size=8, seed=3)

    def test_a_payload_may_fill_its_frame(self):
        """The bound on ``coding_payload_size`` is inclusive, and both
        ordering metrics are accepted."""
        for metric in ("etx", "eotx"):
            config = RunConfig(packet_size=64, coding_payload_size=64, more_metric=metric)
            assert (config.coding_payload_size, config.more_metric) == (64, metric)

    def test_unknown_field_rejected(self, sweep_spec):
        spec = sweep_spec
        spec.run["bogus_field"] = 1
        with pytest.raises(ValueError):
            spec.run_config(seed=1)
