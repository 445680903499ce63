"""Simulation node: glue between the MAC and a protocol agent."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.mac import CsmaMac

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.protocols.base import ProtocolAgent
    from repro.sim.simulator import Simulator


class SimNode:
    """One wireless router in the simulation.

    A node owns its MAC and hosts at most one protocol agent (the agent
    itself may multiplex several flows, as MORE forwarders do).
    """

    __slots__ = ("node_id", "sim", "mac", "agent")

    def __init__(self, node_id: int, simulator: "Simulator") -> None:
        self.node_id = node_id
        self.sim = simulator
        self.mac = CsmaMac(node_id, simulator)
        self.agent: "ProtocolAgent | None" = None

    def attach(self, agent: "ProtocolAgent") -> None:
        """Attach a protocol agent to this node."""
        self.agent = agent
        self.mac.agent = agent  # keep the MAC's cached reference in sync
        self.sim._agents[self.node_id] = agent  # the delivery table
        agent.bind(self)

    def close(self) -> None:
        """Detach the agent and cut the node's and its MAC's references to
        the simulator (:meth:`repro.sim.simulator.Simulator.close`); the
        MAC keeps its counters."""
        if self.agent is not None:
            self.agent.unbind()
            self.agent = None
        self.mac.close()
        self.sim = None

    def notify_pending(self) -> None:
        """Tell the MAC that the agent (may) have new frames queued."""
        self.mac.trigger()
