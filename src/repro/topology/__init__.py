"""Wireless mesh topologies: the data model and synthetic generators."""

from repro.topology.estimation import (
    DEFAULT_OPTIMISM_EXPONENT,
    DEFAULT_PROBE_COUNT,
    perfect_estimates,
    probe_estimated_topology,
)
from repro.topology.generator import (
    chain,
    cost_gap_topology,
    diamond,
    grid,
    indoor_testbed,
    random_geometric,
    random_mesh,
    two_hop_relay,
)
from repro.topology.graph import Node, Topology
from repro.topology.mobility import (
    MOBILITY_KINDS,
    MarkovLinkChurn,
    MobilityModel,
    MobilitySpec,
    RandomWaypoint,
    build_mobility_model,
)

__all__ = [
    "DEFAULT_OPTIMISM_EXPONENT",
    "DEFAULT_PROBE_COUNT",
    "MOBILITY_KINDS",
    "MarkovLinkChurn",
    "MobilityModel",
    "MobilitySpec",
    "Node",
    "RandomWaypoint",
    "Topology",
    "build_mobility_model",
    "chain",
    "cost_gap_topology",
    "diamond",
    "grid",
    "indoor_testbed",
    "perfect_estimates",
    "probe_estimated_topology",
    "random_geometric",
    "random_mesh",
    "two_hop_relay",
]
