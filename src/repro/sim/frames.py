"""Frame abstraction exchanged over the simulated medium.

A :class:`Frame` is what the MAC hands to the medium: a protocol payload
plus addressing and size information.  Protocol payloads are opaque to the
MAC and the medium; the receiving node's protocol agent interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

#: Address meaning "all nodes in radio range" (802.11 broadcast).
BROADCAST = -1


class FrameKind(Enum):
    """Coarse frame classification: the MAC and the statistics count data
    frames apart from the rest."""

    DATA = "data"
    BATCH_ACK = "batch_ack"
    CONTROL = "control"


@dataclass(slots=True)
class Frame:
    """A link-layer frame.

    Attributes:
        sender: transmitting node id.
        receiver: intended MAC receiver, or :data:`BROADCAST`.
        kind: frame classification.
        flow_id: flow the frame belongs to (control frames included).
        size_bytes: payload size including protocol headers (the MAC adds
            its own overhead when computing air time).
        payload: protocol-specific object (opaque to MAC/medium).
        mac_attempts: filled in by the MAC after the frame is done — the
            number of transmission attempts it took (1 for broadcast).
    """

    sender: int
    receiver: int
    kind: FrameKind
    flow_id: int
    size_bytes: int
    payload: Any = None
    mac_attempts: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        target = "bcast" if self.receiver == BROADCAST else str(self.receiver)
        return (
            f"Frame({self.kind.value} {self.sender}->{target} "
            f"flow={self.flow_id} {self.size_bytes}B)"
        )
