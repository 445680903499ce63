"""Declarative scenario layer: specs, presets and single-cell execution.

``ScenarioSpec`` (:mod:`repro.scenarios.spec`) describes an experiment as
plain data; :mod:`repro.scenarios.presets` names ready-made specs for every
paper figure plus generic mesh studies; :mod:`repro.scenarios.execute` runs
one (scenario, seed) cell.  Sweeps across worker processes live in
:mod:`repro.experiments.orchestrator`; the front door is ``python -m repro``.
"""

from repro.scenarios.build import (
    TOPOLOGY_BUILDERS,
    WORKLOAD_KINDS,
    build_flow_sets,
    build_pairs,
    build_topology,
)
from repro.sim.channels import ChannelSpec
from repro.topology.mobility import MOBILITY_KINDS, MobilitySpec
from repro.scenarios.execute import CellResult, run_cell, run_cell_dict
from repro.scenarios.presets import PRESETS, get_preset, list_presets, register
from repro.scenarios.spec import (
    MIN_BATCHES_PER_TRANSFER,
    MODES,
    ScenarioCell,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "CellResult",
    "ChannelSpec",
    "MIN_BATCHES_PER_TRANSFER",
    "MOBILITY_KINDS",
    "MODES",
    "MobilitySpec",
    "PRESETS",
    "ScenarioCell",
    "ScenarioSpec",
    "TOPOLOGY_BUILDERS",
    "TopologySpec",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "build_flow_sets",
    "build_pairs",
    "build_topology",
    "get_preset",
    "list_presets",
    "register",
    "run_cell",
    "run_cell_dict",
]
