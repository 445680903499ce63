"""Discrete-event 802.11 wireless substrate (the paper's testbed stand-in)."""

from repro.sim.autorate import OnoeRateController
from repro.sim.channels import (
    CHANNEL_MODELS,
    ChannelModel,
    ChannelSpec,
    GilbertElliott,
    StaticBernoulli,
    build_channel_model,
)
from repro.sim.events import EventHandle, EventQueue
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
    ChannelConfig,
    PhyConfig,
    SimConfig,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import FlowRecord, StatsCollector

__all__ = [
    "BROADCAST",
    "CHANNEL_MODELS",
    "ChannelConfig",
    "ChannelModel",
    "ChannelSpec",
    "CsmaMac",
    "GilbertElliott",
    "StaticBernoulli",
    "build_channel_model",
    "EventHandle",
    "EventQueue",
    "FlowRecord",
    "Frame",
    "FrameKind",
    "MacState",
    "OnoeRateController",
    "PhyConfig",
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
