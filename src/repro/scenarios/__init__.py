"""Declarative scenario layer: specs, presets and single-cell execution.

``ScenarioSpec`` (:mod:`repro.scenarios.spec`) describes an experiment as
plain data; :mod:`repro.scenarios.presets` names ready-made specs for every
paper figure, fixture and extension study; :mod:`repro.scenarios.execute` runs
one (scenario, seed) cell.  Sweeps across worker processes live in
:mod:`repro.experiments.orchestrator`; the front door is ``python -m repro``.

Each name below loads its module on first use (:mod:`repro.lazy`): a spec
does not bring the preset registry or the cell runner with it.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scenarios.build import (
        TOPOLOGY_BUILDERS,
        WORKLOAD_KINDS,
        build_flow_sets,
        build_pairs,
        build_topology,
    )
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
    from repro.sim.channels import ChannelSpec
    from repro.topology.mobility import MOBILITY_KINDS, MobilitySpec

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scenarios.build": (
        "TOPOLOGY_BUILDERS", "WORKLOAD_KINDS", "build_flow_sets", "build_pairs",
        "build_topology"),
    "repro.scenarios.execute": ("CellResult", "run_cell", "run_cell_dict"),
    "repro.scenarios.presets": ("PRESETS", "get_preset", "list_presets", "register"),
    "repro.scenarios.spec": (
        "MIN_BATCHES_PER_TRANSFER", "MODES", "ScenarioCell", "ScenarioSpec",
        "TopologySpec", "WorkloadSpec"),
    "repro.sim.channels": ("ChannelSpec",),
    "repro.topology.mobility": ("MOBILITY_KINDS", "MobilitySpec"),
})

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
