"""Every ``RunConfig`` field reaches the run.

A knob that lands on :class:`~repro.experiments.runner.RunConfig` but that
nothing on the run path reads is accepted by the scenario JSON, swept by
the CLI and ignored by every cell: the sweep axis comes out flat and no
other test fails.  Here each field has one row: a value other than the
base config's and a small scenario in which that value must change the
run's signature — the flows' results, the number of events the simulator
processed and every flow's installed spec and plan.  A field without a
row fails :func:`test_every_field_has_a_row`, so a new knob arrives with a
scenario showing that it does something.  One level down, the run path sets
every :class:`~repro.sim.radio.SimConfig` field
(:func:`test_start_flows_sets_every_sim_config_field`): a field it leaves at
its default is one only tests can set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import pytest

from repro.experiments import runner
from repro.experiments.runner import RunConfig, run_flows
from repro.sim.radio import RATE_11MBPS, SimConfig
from repro.topology.generator import chain, diamond

#: The config every row changes one field of: a short transfer.
BASE = RunConfig(total_packets=16, batch_size=8, packet_size=400)

#: Scenario name -> (topology factory, protocol, flow pairs).
SCENARIOS = {
    # Three relays between source and destination, one direct link: a plan
    # with several forwarders and credits that move with the estimates.
    "more_diamond": (lambda: diamond(0.6, 0.5, relay_count=3, direct=0.1), "MORE",
                     ((0, 4),)),
    "srcr_chain": (lambda: chain(3, link_delivery=0.6, skip_delivery=0.2), "Srcr",
                   ((0, 3),)),
}

#: Field -> (its value in the row, the scenario it must change).
ROWS = {
    "total_packets": (24, "more_diamond"),
    "batch_size": (4, "more_diamond"),
    "packet_size": (800, "more_diamond"),
    "bitrate": (RATE_11MBPS, "more_diamond"),
    "seed": (7, "more_diamond"),
    "max_duration": (0.02, "more_diamond"),
    "coding_payload_size": (8, "more_diamond"),
    "srcr_autorate": (True, "srcr_chain"),
    "more_metric": ("eotx", "more_diamond"),
    "estimation_exponent": (1.0, "more_diamond"),
    "estimation_probes": (0, "more_diamond"),
    "vector_only": (True, "more_diamond"),
    "refresh_period": (0.05, "more_diamond"),
    "max_relays": (1, "more_diamond"),
    "progress_timeout": (0.05, "more_diamond"),
}


def signature(config: RunConfig, scenario: str) -> tuple:
    """What a run did: its flows' results, the events the simulator
    processed, and each flow's installed spec (its plan included)."""
    make_topology, protocol, pairs = SCENARIOS[scenario]
    start_flows = runner.start_flows
    started = []

    def recording_start(*args, **kwargs):
        started.append(start_flows(*args, **kwargs))
        return started[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "start_flows", recording_start)
        results = run_flows(make_topology(), protocol, list(pairs), config)
    (sim, handles), = started
    return (tuple(map(repr, results)), sim.events.processed,
            tuple(repr(handle.spec) for handle in handles))


@lru_cache(maxsize=None)
def _base_signature(scenario: str) -> tuple:
    return signature(BASE, scenario)


def reaches_run(config_class: type[RunConfig], name: str, value, scenario: str) -> bool:
    """Whether setting field ``name`` to ``value`` changes ``scenario``'s run."""
    base = config_class(**{spec.name: getattr(BASE, spec.name)
                           for spec in fields(RunConfig)})
    assert getattr(base, name) != value, f"the {name} row must change the field"
    return signature(replace(base, **{name: value}), scenario) != _base_signature(scenario)


def missing_rows(config_class: type[RunConfig]) -> set[str]:
    """Fields without a row, and rows without a field."""
    return {spec.name for spec in fields(config_class)} ^ set(ROWS)


def test_every_field_has_a_row():
    assert missing_rows(RunConfig) == set()


@pytest.mark.parametrize("name", [spec.name for spec in fields(RunConfig)])
def test_field_reaches_the_run(name):
    value, scenario = ROWS[name]
    assert reaches_run(RunConfig, name, value, scenario), (
        f"RunConfig.{name}={value!r} changes nothing in the {scenario} run: "
        "no code on the run path reads it")


def test_start_flows_sets_every_sim_config_field(monkeypatch):
    passed = []

    def recording(*args, **kwargs):
        assert not args
        passed.append(kwargs)
        return SimConfig(**kwargs)

    monkeypatch.setattr(runner, "SimConfig", recording)
    make_topology, protocol, pairs = SCENARIOS["more_diamond"]
    runner.start_flows(make_topology(), protocol, list(pairs), BASE)
    (kwargs,) = passed
    assert set(kwargs) == {spec.name for spec in fields(SimConfig)}


def test_the_base_run_is_deterministic():
    """A signature that differed between two identical runs would make every
    row pass; it must not."""
    for scenario in SCENARIOS:
        assert signature(BASE, scenario) == _base_signature(scenario)


# -- the corpus: a dead-read knob is rejected -------------------------------- #

@dataclass
class DeadKnobConfig(RunConfig):
    """A knob nothing reads: placing node 0 at the origin, a field only an
    uncalled helper would consult."""

    node0_at_origin: bool = False


def _place_nodes(config: DeadKnobConfig) -> tuple[float, float] | None:
    """The helper whose last call site was dropped."""
    return (0.0, 0.0) if config.node0_at_origin else None


def test_a_knob_nothing_reads_is_rejected():
    assert missing_rows(DeadKnobConfig) == {"node0_at_origin"}
    assert _place_nodes(DeadKnobConfig(node0_at_origin=True)) == (0.0, 0.0)
    # Given a row, the knob still changes nothing in the run.
    assert not reaches_run(DeadKnobConfig, "node0_at_origin", True, "more_diamond")
