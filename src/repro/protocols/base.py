"""Common protocol-agent interface.

A :class:`ProtocolAgent` is the per-node half of a routing protocol.  It is
pull-driven by the MAC: the MAC asks ``has_pending`` / ``on_transmit_opportunity``
when it wins channel access, and pushes ``on_frame_received`` for every frame
the node successfully decodes (including overheard frames addressed to other
nodes).  This mirrors the architecture in Figure 3-2 of the paper and keeps
every protocol strictly above the MAC, which is MORE's whole point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.frames import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.node import SimNode
    from repro.sim.simulator import Simulator


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

    def on_transmission_started(self, frame: Frame, now: float) -> None:
        """Called the instant a transmission begins (MORE pre-codes here)."""

    def on_frame_sent(self, frame: Frame, success: bool, now: float) -> None:
        """Called when the MAC finishes with a frame (success False = unicast drop)."""

    def on_frame_received(self, frame: Frame, now: float) -> None:
        """Called for every frame this node successfully decodes."""

    def select_bitrate(self, frame: Frame) -> int | None:
        """Bit-rate override for ``frame`` (None = simulator default)."""
        return None
