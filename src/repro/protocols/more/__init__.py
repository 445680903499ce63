"""MORE: MAC-independent Opportunistic Routing & Encoding."""

from repro.protocols.more.agent import (
    MoreAckPayload,
    MoreAgent,
    MoreFlowSpec,
)
from repro.protocols.more.flow import MoreFlowHandle, setup_more_flow
from repro.protocols.more.header import (
    CREDIT_SCALE,
    MAX_FORWARDERS,
    ForwarderEntry,
    MoreHeader,
    MorePacketType,
)

__all__ = [
    "CREDIT_SCALE",
    "ForwarderEntry",
    "MAX_FORWARDERS",
    "MoreAckPayload",
    "MoreAgent",
    "MoreFlowHandle",
    "MoreFlowSpec",
    "MoreHeader",
    "MorePacketType",
    "setup_more_flow",
]
