"""Every random draw comes from a declared stream, checked on running code.

The paper's comparisons are fair only because every protocol sees the same
losses at a given seed.  Two properties make that so, and each is checked
here on the models and runs themselves:

* a counter-based model — every kind in ``CHANNEL_MODELS``,
  ``MOBILITY_MODELS`` and ``FAULT_MODELS`` — answers as a pure function of
  its seed: two instances queried in two interleavings agree on every query
  both made, so back-to-back protocol runs (whose traffic queries the
  models differently) see one realisation;
* only the medium (reception and capture coins) and the MACs (backoff)
  read the main generator, through its one :class:`repro.rng.WordStream`,
  plus the simulator handing the generator back at the end of a run.  A
  draw anywhere else shifts every later coin and backoff of the run.

Each check has a corpus test: a model, or a fault process, with the bug the
check exists to reject.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.experiments.runner import PROTOCOLS, Environment, RunConfig, run_flows, start_flows
from repro.rng import WordStream
from repro.sim import simulator as simulator_module
from repro.sim.channels import CHANNEL_MODELS, ChannelModel, ChannelSpec
from repro.sim.faults import FAULT_MODELS, FaultModel, FaultSpec
from repro.sim.medium import WirelessMedium
from repro.sim.simulator import Simulator
from repro.topology.generator import random_geometric
from repro.topology.graph import LinkTable, Topology
from repro.topology.mobility import MOBILITY_MODELS, MobilitySpec

#: A ten-node mesh with coordinates (random waypoint moves them) and a
#: multi-hop flow across it.
TOPOLOGY = random_geometric(node_count=10, area=80.0, seed=1)
SOURCE, DESTINATION = 0, 3
NODES = list(range(TOPOLOGY.node_count))

#: Model parameters that make a short horizon eventful; kinds not listed
#: take their defaults.
PARAMS = {
    "gilbert_elliott": {"mean_good_time": 0.05, "mean_bad_time": 0.02},
    "random_waypoint": {"epoch_length": 0.05, "speed_min": 20.0, "speed_max": 40.0},
    "link_churn": {"epoch_length": 0.05, "mean_up_time": 0.2, "mean_down_time": 0.1},
    "scheduled": {"downs": {5: [[0.05, 0.15]], 7: [[0.0, 0.1], [0.2, 0.4]]}},
    "crash_recover": {"mean_uptime": 0.2, "mean_downtime": 0.05,
                      "protect": [SOURCE, DESTINATION]},
}

# -- counter-based models are pure functions of their seed -------------------- #

TIMES = np.linspace(0.0, 1.0, 41).tolist()
AFTERS = np.linspace(0.0, 2.0, 21).tolist()


class Layer(NamedTuple):
    """One model layer: its registry and spec, how a model binds, and the
    queries in one order and in a second interleaving (of a subset)."""

    registry: dict
    spec: type
    bind: Callable
    first: list
    second: list


#: A channel model advances each sender's links forward in time, so both
#: orders query each sender at non-decreasing times; mobility and fault
#: models take any order.
LAYERS = {
    "channel": Layer(
        CHANNEL_MODELS, ChannelSpec, lambda model: model.bind(TOPOLOGY),
        [("delivery_row", sender, time, time + 0.002) for time in TIMES for sender in NODES],
        [("delivery_row", sender, time, time + 0.002)
         for sender in reversed(NODES) for time in TIMES[::3]]),
    "mobility": Layer(
        MOBILITY_MODELS, MobilitySpec, lambda model: model.bind(TOPOLOGY),
        [("topology_at", epoch) for epoch in range(9)],
        [("topology_at", epoch) for epoch in (7, 2, 8, 0, 5, 2)]),
    "faults": Layer(
        FAULT_MODELS, FaultSpec, lambda model: model.bind(TOPOLOGY.node_count),
        [("initial_down", node) for node in NODES]
        + [("next_transition", node, after) for after in AFTERS for node in NODES],
        [("next_transition", node, after) for node in NODES for after in reversed(AFTERS)]
        + [("initial_down", node) for node in reversed(NODES)]),
}

MODEL_KINDS = [(layer, kind) for layer in LAYERS for kind in LAYERS[layer].registry]


def _comparable(answer):
    """An answer as a value ``!=`` compares: an array as (shape, bytes), a
    link table field by field, a mesh by its link table and its positions."""
    if isinstance(answer, np.ndarray):
        return answer.shape, answer.tobytes()
    if isinstance(answer, LinkTable):
        return tuple(map(_comparable, answer))
    if isinstance(answer, Topology):
        return _comparable(answer.link_table()), answer.node_positions()
    return answer


def _answers(model, queries) -> dict:
    """Each query's answer, in a form ``!=`` compares."""
    return {(name, *args): _comparable(getattr(model, name)(*args))
            for name, *args in queries}


def interleaving_mismatches(layer: str, model_class: type, **params) -> list:
    """The queries two fresh models, queried in the layer's two orders,
    answer differently."""
    models = []
    for _ in range(2):
        model = model_class(seed=11, **params)
        LAYERS[layer].bind(model)
        models.append(model)
    expected = _answers(models[0], LAYERS[layer].first)
    return [query for query, answer in _answers(models[1], LAYERS[layer].second).items()
            if answer != expected[query]]


@pytest.mark.parametrize("layer, kind", MODEL_KINDS)
def test_realisation_is_independent_of_query_order(layer, kind):
    model_class = LAYERS[layer].registry[kind]
    assert interleaving_mismatches(layer, model_class, **PARAMS.get(kind, {})) == []


class StoredGeneratorChannel(ChannelModel):
    """The shared-window bug: a generator built in ``_prepare`` and drawn
    from by every query, so an answer depends on the queries before it."""

    kind = "stored_window"

    def _prepare(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def delivery_row(self, sender: int, start: float, end: float) -> np.ndarray:
        table = self._bound().link_table()
        delivery = table.delivery[table.indptr[sender]:table.indptr[sender + 1]]
        return delivery * (self._rng.random(delivery.size) < 0.8)


def test_a_stored_generator_is_rejected():
    assert interleaving_mismatches("channel", StoredGeneratorChannel)


# -- only the medium and the MACs read the main stream ------------------------ #

#: The modules whose draws the main stream exists for.
MAIN_STREAM_MODULES = frozenset({"repro.sim.medium", "repro.sim.mac"})
#: ``Simulator.run`` hands the generator back when a run ends.
HAND_BACK = ("repro.sim.simulator", "run")

#: A short transfer with the online control plane armed: the link-state
#: refresher and the progress watchdog run too.
RUN = RunConfig(total_packets=48, batch_size=16, max_duration=3.0,
                refresh_period=0.1, progress_timeout=0.2)

#: Case -> (environment, run config): one per model kind, plus the paper's
#: own setting as the no-model baseline (static links, no mobility, no
#: faults, plans computed once).
def _environment(layer: str, kind: str) -> Environment:
    return Environment(**{layer: LAYERS[layer].spec(kind, PARAMS.get(kind, {}))})


CASES = {f"{layer}-{kind}": (_environment(layer, kind), RUN) for layer, kind in MODEL_KINDS}
CASES["baseline"] = (Environment(), RunConfig(total_packets=48, batch_size=16))


@pytest.fixture
def main_stream_readers(monkeypatch) -> set[tuple[str, str]]:
    """The ``(module, function)`` of every reader of the main generator
    while the test runs.

    The medium and the MACs bind the stream's methods when they are built,
    so the class is patched before any simulator exists.  The ``rng``
    properties hand out the generator itself, so a reader through them is
    the code that read the property.
    """
    readers: set[tuple[str, str]] = set()

    def note(frame) -> None:
        module = frame.f_globals.get("__name__")
        if module != "repro.rng":  # the stream's own calls to itself
            readers.add((module, frame.f_code.co_name))

    def recording(method):
        def read(self, *args):
            note(sys._getframe(1))
            return method(self, *args)
        return read

    def handing_out(stream):
        def rng(self) -> np.random.Generator:
            note(sys._getframe(1))
            return generator(getattr(self, stream))
        return property(rng)

    generator = WordStream.generator
    for name in ("take", "word", "bounded", "generator"):
        monkeypatch.setattr(WordStream, name, recording(getattr(WordStream, name)))
    monkeypatch.setattr(Simulator, "rng", handing_out("words"))
    monkeypatch.setattr(WirelessMedium, "rng", handing_out("_words"))
    return readers


def stray(readers: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """The readers outside the medium, the MACs and the end-of-run hand-back."""
    return {reader for reader in readers
            if reader[0] not in MAIN_STREAM_MODULES and reader != HAND_BACK}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_only_the_medium_and_the_macs_read_the_main_stream(protocol, case,
                                                           main_stream_readers):
    environment, config = CASES[case]
    run_flows(TOPOLOGY, protocol, [(SOURCE, DESTINATION)], config, environment)
    assert stray(main_stream_readers) == set()
    # The recording saw the run's draws at all.
    assert {module for module, _ in main_stream_readers} >= MAIN_STREAM_MODULES


class MainStreamFaults(FaultModel):
    """A fault process drawing its holding times from ``sim.rng``: every
    fault draw shifts every later reception coin and backoff of the run."""

    kind = "main_stream"

    def __init__(self) -> None:
        super().__init__()
        self.sim: Simulator | None = None
        self.down = False

    def next_transition(self, node: int, after: float) -> tuple[float, bool] | None:
        if node != 5:
            return None
        self.down = not self.down
        if self.sim is None:  # the injector's first query, inside Simulator()
            return (0.01, self.down)
        return (after + self.sim.rng.exponential(0.05), self.down)


def test_a_fault_process_on_the_main_stream_is_rejected(main_stream_readers, monkeypatch):
    model = MainStreamFaults()
    monkeypatch.setattr(simulator_module, "build_fault_model", lambda spec, seed: model)
    sim, _ = start_flows(TOPOLOGY, "MORE", [(SOURCE, DESTINATION)], RUN)
    model.sim = sim
    sim.run(stop_condition=sim.stats.all_flows_complete)
    assert stray(main_stream_readers) == {(__name__, "next_transition")}
