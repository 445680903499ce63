"""Deterministic node-failure processes: crash/recover as a first-class axis.

The paper's robustness story is usually told at the *link* level (lossy,
bursty, time-varying channels) — but the sharpest test of "randomness over
structure" is a *node* that dies mid-batch: Srcr loses its one path, ExOR
loses a slot in its schedule, MORE loses a forwarder whose credits the
whole batch was budgeted around.  This module makes that an axis a
scenario can sweep, mirroring :class:`~repro.sim.channels.ChannelSpec` /
:class:`~repro.topology.mobility.MobilitySpec`:

* :class:`ScheduledOutages` — explicit per-node down windows (the
  reproducible "kill node 3 at t=5s" experiment).
* :class:`CrashRecover` — stochastic per-node up/down alternating renewal
  chains with exponential holding times; each node's k-th holding time is
  a pure function of ``(seed, node, k)`` via the shared
  :func:`repro.rng.counter_uniform`, so realisations replay exactly regardless of event
  interleaving and never touch the simulator's main RNG stream.

A :class:`FaultSpec` is the declarative form (``kind`` + ``params``) that
rides inside :class:`~repro.scenarios.spec.ScenarioSpec` JSON, the
``repro run/sweep --faults`` CLI flag and sweepable ``faults.*`` axes;
:func:`build_fault_model` turns it into a live model and the simulator
attaches a :class:`FaultInjector` that walks the model's transitions on
the event queue.

Determinism: fault randomness derives from the cell seed mixed with a
private stream key via *counter-based* draws (no ``Generator`` state is
ever stored and the main stream is never read, both checked on running
code by ``tests/invariants/test_random_streams.py``), and a
``faults=None`` / kind ``"none"`` run schedules no events and draws no
randomness: it is bit-identical to a simulator without the subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.params import SectionSpec, bad_parameter, build_model
from repro.rng import counter_uniform
from repro.sim.frames import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.simulator import Simulator

#: Stream key mixed with the cell seed so fault randomness is independent
#: of (and cannot perturb) the simulator's main RNG stream.
_FAULT_STREAM = 0xFA17B05


@dataclass
class FaultSpec(SectionSpec):
    """Declarative fault-process description: ``kind`` plus its parameters.

    ``params`` are keyword arguments of the model named by ``kind`` (see
    :data:`FAULT_MODELS`); an optional ``seed`` param pins the fault RNG
    stream independently of the cell seed.  ``kind="none"`` is a fault-free
    scenario (today's behaviour, bit for bit).
    """

    label = "fault"
    kind: str = "none"


class FaultModel:
    """A deterministic fault process over the simulation's node set.

    Subclasses describe *when* nodes are down (:meth:`next_transition` /
    :meth:`initial_down`).  All answers must be pure functions of
    ``(seed, node, counter)`` — the injector may query them in any order
    and a fixed seed must replay the exact same fault realisation.
    """

    kind = "none"
    #: The node ids the model's parameters name.
    _named: frozenset[int] = frozenset()

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.node_count = 0

    def bind(self, node_count: int) -> None:
        """Attach the model to a topology size; called by the injector once.

        A node id the model names outside ``[0, node_count)`` is a one-line
        :func:`~repro.params.bad_parameter` error, not a fault that never
        happens.
        """
        self.node_count = int(node_count)
        outside = sorted(node for node in self._named if not 0 <= node < self.node_count)
        if outside:
            raise bad_parameter("faults", self.kind, f"node ids {outside} are not in "
                                                     f"[0, {self.node_count})")

    def initial_down(self, node: int) -> bool:
        """True if ``node`` starts the simulation crashed."""
        return False

    def next_transition(self, node: int, after: float) -> tuple[float, bool] | None:
        """Next ``(time, down?)`` state change for ``node`` strictly after
        ``after`` (``None`` = the node never changes state again)."""
        return None


class ScheduledOutages(FaultModel):
    """Explicit per-node down windows: the reproducible kill experiment.

    ``downs`` maps node id (int or str, for JSON) to a list of
    ``[start, end)`` windows during which the node is crashed.  Windows of
    one node must not overlap; they are sorted automatically.
    """

    kind = "scheduled"

    def __init__(self, downs: dict[int | str, list[list[float]]] | None = None,
                 seed: int = 0) -> None:
        super().__init__(seed)
        windows: dict[int, list[tuple[float, float]]] = {}
        for node, spans in (downs or {}).items():
            parsed = sorted((float(start), float(end)) for start, end in spans)
            previous_end = -math.inf
            for start, end in parsed:
                if not start < end:
                    raise ValueError(f"scheduled outage window [{start}, {end}) "
                                     f"for node {node} is empty")
                if start < previous_end:
                    raise ValueError(f"scheduled outage windows for node {node} "
                                     "overlap")
                previous_end = end
            windows[int(node)] = parsed
        self._windows = windows
        self._named = frozenset(windows)

    def initial_down(self, node: int) -> bool:
        return any(start <= 0.0 < end for start, end in self._windows.get(node, ()))

    def next_transition(self, node: int, after: float) -> tuple[float, bool] | None:
        for start, end in self._windows.get(node, ()):
            if start > after:
                return (start, True)
            if end > after:
                return (end, False)
        return None


class CrashRecover(FaultModel):
    """Stochastic crash/recover: per-node alternating up/down renewal chains.

    Every node (excluding ``protect``, so a preset can pin its flow
    endpoints alive) alternates exponential
    up-times of mean ``mean_uptime`` and down-times of mean
    ``mean_downtime``.  The k-th holding time of node *n* is derived from
    one SplitMix64 draw at counter ``(seed, n, k)`` — a pure function, so
    the chain replays identically however the injector interleaves with
    other events.  The realised chain prefix is cached per node (caching a
    pure result, not generator state — the RandomWaypoint precedent).
    """

    kind = "crash_recover"

    #: Cycles realised per chain extension (one vectorized SplitMix64 block).
    _CYCLES_PER_BLOCK = 8

    def __init__(self, mean_uptime: float = 30.0, mean_downtime: float = 5.0,
                 protect: list[int] = (), seed: int = 0) -> None:
        super().__init__(seed)
        self.mean_uptime = float(mean_uptime)
        self.mean_downtime = float(mean_downtime)
        if not (self.mean_uptime > 0.0 and self.mean_downtime > 0.0):
            raise ValueError("crash_recover holding-time means must be positive")
        self._protect = self._named = frozenset(int(n) for n in protect)
        self._chains: dict[int, list[tuple[float, bool]]] = {}

    def _uniform(self, node: int, counters: np.ndarray) -> np.ndarray:
        """Counter-based uniforms in (0, 1] for ``(seed, node, counter)``."""
        return counter_uniform(self.seed, _FAULT_STREAM, [node], counters) + 2.0 ** -54

    def _extend_chain(self, node: int, chain: list[tuple[float, bool]]) -> None:
        """Realise the next block of up/down cycles onto ``chain``."""
        cycle = len(chain) // 2
        ks = np.arange(cycle, cycle + self._CYCLES_PER_BLOCK, dtype=np.uint64)
        two = np.uint64(2)
        uptimes = -self.mean_uptime * np.log(self._uniform(node, ks * two))
        downtimes = -self.mean_downtime * np.log(
            self._uniform(node, ks * two + np.uint64(1)))
        clock = chain[-1][0] if chain else 0.0
        for uptime, downtime in zip(uptimes, downtimes):
            clock += float(uptime)
            chain.append((clock, True))
            clock += float(downtime)
            chain.append((clock, False))

    def next_transition(self, node: int, after: float) -> tuple[float, bool] | None:
        if node in self._protect:
            return None
        chain = self._chains.setdefault(node, [])
        while not chain or chain[-1][0] <= after:
            self._extend_chain(node, chain)
        for time, down in chain:
            if time > after:
                return (time, down)
        raise AssertionError("unreachable: chain extended past `after`")


#: Fault models addressable from a :class:`FaultSpec`.
FAULT_MODELS: dict[str, type[FaultModel]] = {
    ScheduledOutages.kind: ScheduledOutages,
    CrashRecover.kind: CrashRecover,
}

#: Spec kinds accepted by :func:`build_fault_model` (``none`` = fault-free).
FAULT_KINDS = ("none",) + tuple(sorted(FAULT_MODELS))


def build_fault_model(spec: FaultSpec | None, seed: int = 0) -> FaultModel | None:
    """Instantiate the process a spec describes (``None``/none = fault-free);
    see :func:`repro.params.build_model` for the seeding convention."""
    return build_model("faults", spec, FAULT_MODELS, FAULT_KINDS, seed)


class FaultInjector:
    """Runtime half of the fault subsystem: walks a model's transitions.

    The injector keeps an O(1) per-node down flag the hot paths consult
    (:meth:`down` from the MAC transmit gates,
    :meth:`filter_receivers` from the medium's reception resolution) and
    schedules exactly one outstanding transition event per affected node —
    a dead node neither transmits, receives, nor answers probes, and a
    recovering node's MAC is re-kicked so queued traffic resumes.

    Receiver filtering happens *after* the medium's reception draws, so
    the channel realisation (and the main RNG stream) is identical with
    and without faults: a crash changes who keeps a frame, never the dice.
    """

    def __init__(self, model: FaultModel, sim: "Simulator") -> None:
        self.model = model
        self.sim = sim
        node_count = sim.topology.node_count
        model.bind(node_count)
        self._down = [model.initial_down(node) for node in range(node_count)]
        self._down_count = sum(self._down)
        #: Counters surfaced in stall diagnoses and smoke assertions.
        self.crashes = 0
        self.recoveries = 0

    def install(self) -> None:
        """Schedule the first transition of every affected node."""
        events = self.sim.events
        for node in range(len(self._down)):
            transition = self.model.next_transition(node, 0.0)
            if transition is not None:
                time, down = transition
                events.schedule_at(
                    time, partial(self._transition, node, down))

    # ------------------------------------------------------------------ #
    # Hot-path queries
    # ------------------------------------------------------------------ #

    def down(self, node: int) -> bool:
        """True if ``node`` is currently crashed (O(1), hot path)."""
        return self._down[node]

    def down_nodes(self) -> frozenset[int]:
        """The set of currently crashed nodes (diagnosis / control plane)."""
        return frozenset(node for node, down in enumerate(self._down) if down)

    def filter_receivers(self, frame: Frame, receivers: list[int]) -> list[int]:
        """Drop receptions faults forbid; called by the medium after the
        channel draws so the RNG stream is fault-independent."""
        if self._down_count == 0:
            return receivers
        down = self._down
        if down[frame.sender]:
            # The sender crashed while the frame was on the air: nobody
            # decodes a transmission that died with its radio.
            return []
        if not receivers:
            return receivers
        return [node for node in receivers if not down[node]]

    # ------------------------------------------------------------------ #
    # Transition events
    # ------------------------------------------------------------------ #

    def _transition(self, node: int, down: bool) -> None:
        now = self.sim.events.now
        if down != self._down[node]:
            self._down[node] = down
            self._down_count += 1 if down else -1
            if down:
                self.crashes += 1
            else:
                self.recoveries += 1
                # Wake the recovered node's MAC: traffic queued before the
                # crash (or heard since by neighbours) resumes immediately.
                self.sim.trigger_node(node)
        transition = self.model.next_transition(node, now)
        if transition is not None:
            time, next_down = transition
            self.sim.events.schedule_at(
                time, partial(self._transition, node, next_down))
