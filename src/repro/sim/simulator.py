"""Top-level simulator tying together topology, medium, MACs and agents."""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from repro.rng import WordStream
from repro.sim.channels import build_channel_model
from repro.sim.events import EventQueue
from repro.sim.faults import FaultInjector, build_fault_model
from repro.topology.mobility import build_mobility_model
from repro.sim.frames import Frame, FrameKind
from repro.sim.medium import WirelessMedium
from repro.sim.node import SimNode
from repro.sim.radio import SimConfig
from repro.sim.trace import StatsCollector
from repro.topology.graph import Topology


class Simulator:
    """Discrete-event wireless network simulator.

    Typical use::

        sim = Simulator(topology, SimConfig(seed=1))
        handle = setup_more_flow(sim, topology, source, destination,
                                 file_bytes=file_bytes)
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    """

    def __init__(self, topology: Topology, config: SimConfig | None = None) -> None:
        self.topology = topology
        self.config = config if config is not None else SimConfig()
        self.events = EventQueue()
        #: The main generator's one reader: the medium's reception and
        #: capture coins and every MAC's backoff draw share it, in call order.
        self.words = WordStream(np.random.default_rng(self.config.seed))
        # The channel model draws from its own seed-derived stream, so a
        # static-channel simulation consumes the main RNG exactly as before.
        model = build_channel_model(self.config.channel_model,
                                    seed=self.config.seed)
        # Mobility randomness likewise rides its own seed-derived stream, so
        # a static-topology simulation consumes the main RNG exactly as
        # before.
        mobility = build_mobility_model(self.config.mobility,
                                        seed=self.config.seed)
        # Fault processes ride their own counter-based stream and, when the
        # spec is None, neither schedule events nor alter any hot path — a
        # fault-free simulation is bit-identical with or without the
        # subsystem (pinned by tests/sim/test_fault_differential.py).
        fault_model = build_fault_model(self.config.faults,
                                        seed=self.config.seed)
        self.faults = (FaultInjector(fault_model, self)
                       if fault_model is not None else None)
        self.medium = WirelessMedium(topology, self.words, model=model,
                                     mobility=mobility, faults=self.faults)
        # node id -> attached agent (or None); the flat list saves the
        # per-receiver node-object indirection on the delivery hot path and
        # is kept in sync by SimNode.attach.
        self._agents: list = [None] * topology.node_count
        #: ``(size_bytes, bitrate) -> airtime``, shared by every MAC: a pure
        #: function of its key, and flows reuse a handful of sizes.
        self.airtimes: dict[tuple[int, int], float] = {}
        self.nodes = [SimNode(i, self) for i in range(topology.node_count)]
        self.stats = StatsCollector()
        self._flow_ids = itertools.count(1)
        self.closed = False
        if self.faults is not None:
            self.faults.install()

    # ------------------------------------------------------------------ #
    # Clock and scheduling
    # ------------------------------------------------------------------ #

    @property
    def rng(self) -> np.random.Generator:
        """The main generator, handed back at its logical position
        (:meth:`repro.rng.WordStream.generator`)."""
        return self.words.generator()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.events.now

    def run(self, until: float | None = None,
            stop_condition: Callable[[], bool] | None = None,
            max_events: int | None = None) -> float:
        """Run the simulation; see :meth:`EventQueue.run`.

        On return the main generator is handed back at its logical
        position, so no block of its words outlives a run.
        """
        if self.closed:
            raise RuntimeError("the simulator is closed: its run has ended")
        horizon = until if until is not None else self.config.max_duration
        try:
            return self.events.run(until=horizon, stop_condition=stop_condition,
                                   max_events=max_events)
        finally:
            self.words.generator()

    def close(self) -> None:
        """End the run: keep its record, drop its machinery.

        What stays is what a finished run is read for: :attr:`stats`,
        :attr:`now`, ``events.processed``, every node's ``mac.stats`` and
        the medium's and the fault injector's counters.  What goes is
        what only a running simulation needs: every agent (detached from
        its node, its MAC and the delivery table, with the coding state it
        holds), the pending events, the frames on the air and in the
        medium's overlap history, each MAC's current frame, and the
        references back to the simulator that would hold it in a cycle
        (nodes, MACs, the fault injector).  A closed simulator is freed by
        reference counting alone once its last holder lets go.

        Idempotent; :meth:`run` refuses a closed simulator.
        """
        if self.closed:
            return
        self.closed = True
        for node in self.nodes:
            node.close()
        self._agents = [None] * len(self.nodes)
        self.events.clear()
        self.medium.clear()
        if self.faults is not None:
            self.faults.sim = None

    # ------------------------------------------------------------------ #
    # Agent management and frame delivery
    # ------------------------------------------------------------------ #

    def attach_agent(self, node_id: int, agent) -> None:
        """Attach ``agent`` to node ``node_id``."""
        self.nodes[node_id].attach(agent)

    def new_flow_id(self) -> int:
        """The next unused flow id of this run: 1, 2, ... in set-up order,
        whatever the protocol.  Flow ids seed per-flow randomness, so they
        must not depend on what else the process has simulated."""
        return next(self._flow_ids)

    def deliver(self, frame: Frame, receivers: list[int]) -> None:
        """Hand a completed frame to the agents of every node that received it.

        All successful receivers get the frame, including nodes that were not
        the MAC-level destination — overhearing is an essential part of
        opportunistic routing (and of MORE's ACK snooping).
        """
        if frame.kind is FrameKind.DATA:
            self.stats.record_data_transmission(frame.sender)
        agents = self._agents
        now = self.events.now
        for node_id in receivers:
            agent = agents[node_id]
            if agent is not None:
                agent.on_frame_received(frame, now)

    def trigger_node(self, node_id: int) -> None:
        """Poke a node's MAC (used by agents when new traffic appears)."""
        self.nodes[node_id].notify_pending()
