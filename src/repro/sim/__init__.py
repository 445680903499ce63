"""Discrete-event 802.11 wireless substrate (the paper's testbed stand-in)."""

from repro.sim.autorate import OnoeRateController
from repro.sim.channels import (
    CHANNEL_KINDS,
    CHANNEL_MODELS,
    ChannelModel,
    ChannelSpec,
    GilbertElliott,
    build_channel_model,
)
from repro.sim.events import EventQueue
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.mac import CsmaMac, MacState
from repro.sim.medium import Transmission, WirelessMedium
from repro.sim.node import SimNode
from repro.sim.radio import (
    RATE_1MBPS,
    RATE_2MBPS,
    RATE_5_5MBPS,
    RATE_11MBPS,
    SUPPORTED_RATES,
    SimConfig,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import FlowRecord, StatsCollector

__all__ = [
    "BROADCAST",
    "CHANNEL_KINDS",
    "CHANNEL_MODELS",
    "ChannelModel",
    "ChannelSpec",
    "CsmaMac",
    "GilbertElliott",
    "build_channel_model",
    "EventQueue",
    "FlowRecord",
    "Frame",
    "FrameKind",
    "MacState",
    "OnoeRateController",
    "RATE_11MBPS",
    "RATE_1MBPS",
    "RATE_2MBPS",
    "RATE_5_5MBPS",
    "SUPPORTED_RATES",
    "SimConfig",
    "SimNode",
    "Simulator",
    "StatsCollector",
    "Transmission",
    "WirelessMedium",
]
