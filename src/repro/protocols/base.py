"""What the three protocols share: the per-node agent interface and the
per-flow handle.

A :class:`ProtocolAgent` is the per-node half of a routing protocol.  It is
pull-driven by the MAC: the MAC asks ``has_pending`` / ``on_transmit_opportunity``
when it wins channel access, and pushes ``on_frame_received`` for every frame
the node successfully decodes (including overheard frames addressed to other
nodes).  This mirrors the architecture in Figure 3-2 of the paper and keeps
every protocol strictly above the MAC, which is MORE's whole point.

A :class:`FlowHandle` is the per-flow half: what ``setup_*_flow`` returns,
and the owner of the flow's control plane (:meth:`FlowHandle.replan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

from repro.sim.frames import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.node import SimNode
    from repro.sim.simulator import Simulator
    from repro.sim.trace import FlowRecord
    from repro.topology.graph import LinkView

AgentT = TypeVar("AgentT", bound="ProtocolAgent")


class ProtocolAgent:
    """Base class for per-node protocol implementations."""

    protocol_name = "base"

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.node: "SimNode | None" = None
        self.sim: "Simulator | None" = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def bind(self, node: "SimNode") -> None:
        """Called when the agent is attached to a simulation node."""
        self.node = node
        self.sim = node.sim
        if type(self).notify_pending is ProtocolAgent.notify_pending:
            # Shadow the delegating method with the node's bound one: the
            # agent pokes the MAC on most receptions, and the indirection
            # (method frame + None guard) is pure overhead once bound.
            # Subclasses that override notify_pending keep their override.
            self.notify_pending = node.notify_pending

    def unbind(self) -> None:
        """Called when the run ends (:meth:`repro.sim.simulator.Simulator.close`):
        drop the node, the simulator and the shadowing bound method, so the
        agent and its node no longer hold each other."""
        self.node = self.sim = None
        self.__dict__.pop("notify_pending", None)

    def notify_pending(self) -> None:
        """Wake the MAC because new traffic became available."""
        if self.node is not None:
            self.node.notify_pending()

    # ------------------------------------------------------------------ #
    # MAC-facing interface (overridden by protocols)
    # ------------------------------------------------------------------ #

    def has_pending(self, now: float) -> bool:
        """True if the agent currently has a frame it wants to transmit."""
        return False

    def on_transmit_opportunity(self, now: float) -> Frame | None:
        """Return the next frame to transmit, or None to pass."""
        return None

    def on_frame_sent(self, frame: Frame, success: bool, now: float) -> None:
        """Called when the MAC finishes with a frame (success False = unicast drop)."""

    def on_frame_received(self, frame: Frame, now: float) -> None:
        """Called for every frame this node successfully decodes."""

    def select_bitrate(self, frame: Frame) -> int | None:
        """Bit-rate override for ``frame`` (None = the run's fixed rate,
        :attr:`repro.sim.radio.SimConfig.bitrate`)."""
        return None


def get_or_create_agent(sim: "Simulator", node_id: int, agent_class: type[AgentT],
                        **options: Any) -> AgentT:
    """The node's ``agent_class`` agent, created and attached if it runs none.

    ``options`` are the constructor's keyword arguments; they apply only to
    an agent created here, so an agent is configured by the flow that first
    installs it.  A node hosts one protocol: asking for another raises
    ``TypeError``.
    """
    existing = sim.nodes[node_id].agent
    if existing is None:
        agent = agent_class(node_id, **options)
        sim.attach_agent(node_id, agent)
        return agent
    if not isinstance(existing, agent_class):
        raise TypeError(
            f"node {node_id} already runs {existing.protocol_name}; cannot add "
            f"a flow of {agent_class.protocol_name}")
    return existing


def check_total_packets(total_packets: int) -> None:
    """Refuse a transfer of nothing, before a flow id is handed out."""
    if total_packets < 1:
        raise ValueError(f"total_packets must be at least 1, got {total_packets}")


@dataclass
class FlowHandle:
    """One installed flow: its spec, its simulator and its control plane.

    Set-up, the periodic link-state refresh and fault recovery all plan a
    flow through :meth:`replan`.  The protocols subclass this with what
    their plan depends on besides the control view (MORE's metric, pruning
    and coding seed, Srcr's autorate), remembered from set-up so every
    re-plan is computed the way the first plan was, whatever configuration
    the caller holds by then.
    """

    spec: Any
    sim: "Simulator" = field(repr=False)

    @property
    def flow_id(self) -> int:
        """Flow identifier."""
        return self.spec.flow_id

    @property
    def record(self) -> "FlowRecord":
        """The flow's delivery statistics."""
        return self.sim.stats.flows[self.spec.flow_id]

    def replan(self, control: "LinkView") -> None:
        """Compute the flow's plan from ``control`` (the link qualities as
        the routing layer believes them to be) and install it.

        A plan is one immutable value, built whole before anything changes
        and installed by a single swap of the spec's ``plan``: every agent
        of the flow reads it through the spec it shares, so none holds a
        copy to refresh.  A ``ValueError`` (the endpoints are disconnected
        in ``control``) is raised before the swap, so the previous plan
        stays installed, the same object, for the caller to keep.

        Idempotent: nodes the plan recruits get per-flow state, nodes
        already in the flow keep their transfer progress, nodes it drops
        keep what they hold but stop taking part.  A re-plan visits only
        the nodes the flow was installed at, never the whole network.
        """
        raise NotImplementedError
