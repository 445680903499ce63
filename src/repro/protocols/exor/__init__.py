"""ExOR: opportunistic routing with a strict MAC schedule (the prior art)."""

from repro.protocols.exor.agent import (
    COMPLETION_THRESHOLD,
    TURN_GUARD_TIME,
    ExorAgent,
    ExorControlPayload,
    ExorDataPayload,
    ExorFlowHandle,
    ExorFlowSpec,
    ExorMapPayload,
    ExorScheduler,
    setup_exor_flow,
)

__all__ = [
    "COMPLETION_THRESHOLD",
    "ExorAgent",
    "ExorControlPayload",
    "ExorDataPayload",
    "ExorFlowHandle",
    "ExorFlowSpec",
    "ExorMapPayload",
    "ExorScheduler",
    "TURN_GUARD_TIME",
    "setup_exor_flow",
]
