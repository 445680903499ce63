"""Materialise the declarative parts of a scenario: topology and workload.

The builders are pure dispatch: a :class:`~repro.scenarios.spec.TopologySpec`
names a generator from :mod:`repro.topology.generator` and a
:class:`~repro.scenarios.spec.WorkloadSpec` names a pair selector from
:mod:`repro.experiments.workloads`.  Everything is deterministic given the
spec (and the cell seed, when the spec does not pin its own).  The
``channel`` / ``mobility`` / ``faults`` sections are built by the simulator
itself (``build_*_model`` in :class:`~repro.sim.simulator.Simulator`).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Callable

from repro.experiments.workloads import multiflow_sets, random_pairs, spatial_reuse_pairs
from repro.params import call_with_params, pop_count
from repro.scenarios.spec import TopologySpec, WorkloadSpec
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
from repro.topology.graph import Topology

#: Topology generators addressable from a :class:`TopologySpec`.
TOPOLOGY_BUILDERS: dict[str, Callable[..., Topology]] = {
    "indoor_testbed": indoor_testbed,
    "chain": chain,
    "grid": grid,
    "diamond": diamond,
    "two_hop_relay": two_hop_relay,
    "random_mesh": random_mesh,
    "random_geometric": random_geometric,
    "cost_gap": cost_gap_topology,
}

#: Workload kinds that describe plain source-destination pairs
#: (:func:`build_pairs`).
PAIR_WORKLOAD_KINDS = ("random_pairs", "spatial_reuse", "explicit")

#: Workload kinds addressable from a :class:`WorkloadSpec`.
WORKLOAD_KINDS = PAIR_WORKLOAD_KINDS + ("multiflow",)

#: How many built meshes :func:`build_topology` keeps (least recently used
#: goes first): a sweep's consecutive cells share one or two.
TOPOLOGY_CACHE_SIZE = 4

_built: OrderedDict[str, Topology] = OrderedDict()


def build_topology(spec: TopologySpec) -> Topology:
    """The topology a spec describes — the same object for the same spec.

    A :class:`TopologySpec` fully determines the mesh, so the last
    :data:`TOPOLOGY_CACHE_SIZE` meshes built in this process are kept, keyed
    on the spec's canonical JSON, and the cells, figure views and flows a
    process runs over one topology section generate it once and share what
    is derived from it (:meth:`repro.topology.graph.Topology.derived`).
    The mesh is therefore shared: to edit one, build a new
    :class:`Topology` from its ``delivery_matrix()``.
    """
    key = json.dumps(spec.to_dict(), sort_keys=True)
    topology = _built.get(key)
    if topology is not None:
        _built.move_to_end(key)
        return topology
    try:
        builder = TOPOLOGY_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown topology kind {spec.kind!r}; expected one of "
                         f"{sorted(TOPOLOGY_BUILDERS)}") from None
    topology = call_with_params("topology", spec.kind, builder, **spec.params)
    _built[key] = topology
    if len(_built) > TOPOLOGY_CACHE_SIZE:
        _built.popitem(last=False)
    return topology


def _workload_seed(spec: WorkloadSpec, default_seed: int) -> int:
    return int(spec.params.get("seed", default_seed))


def build_pairs(spec: WorkloadSpec, topology: Topology,
                default_seed: int) -> list[tuple[int, int]]:
    """The source-destination pairs of a single-flow-at-a-time workload.

    ``default_seed`` (the cell seed) drives pair selection unless the
    workload params pin their own ``seed``: one seed covers both selection
    and simulation.
    """
    params: dict[str, Any] = dict(spec.params)
    params.pop("seed", None)
    seed = _workload_seed(spec, default_seed)
    if spec.kind == "explicit":
        pairs = params.get("pairs", [])
        return [(int(source), int(destination)) for source, destination in pairs]
    if spec.kind == "random_pairs":
        return call_with_params("workload", spec.kind, random_pairs, topology,
                                count=pop_count(spec, params, "count", 10), seed=seed,
                                **params)
    if spec.kind == "spatial_reuse":
        count = pop_count(spec, params, "count", 6)
        path_hops = int(params.pop("path_hops", 4))
        pairs = call_with_params("workload", spec.kind, spatial_reuse_pairs, topology,
                                 count, seed=seed, path_hops=path_hops, **params)
        if not pairs:
            # Fall back to the longest available paths when no concurrent
            # first/last-hop pair exists (small or dense topologies).
            pairs = random_pairs(topology, count, seed=seed,
                                 min_hops=max(2, path_hops - 1))
        return pairs
    raise ValueError(f"workload kind {spec.kind!r} does not describe plain pairs; "
                     f"expected one of {PAIR_WORKLOAD_KINDS}")


def build_flow_sets(spec: WorkloadSpec, topology: Topology,
                    default_seed: int) -> list[list[tuple[int, int]]]:
    """The concurrent flow sets of a ``multiflow`` workload.

    Draws ``set_count`` independent sets of ``flows_per_set`` pairs and
    truncates each to ``flow_count`` flows.  The paper's Figure 4-5
    averages 40 independent runs per point; reusing the prefixes of one
    draw for every count keeps the series comparable across counts and
    removes most of the pair-selection noise at reduced scale.
    """
    if spec.kind != "multiflow":
        raise ValueError(f"expected a multiflow workload, got {spec.kind!r}")
    params: dict[str, Any] = dict(spec.params)
    params.pop("seed", None)
    seed = _workload_seed(spec, default_seed)
    flows_per_set = pop_count(spec, params, "flows_per_set", 4)
    set_count = pop_count(spec, params, "set_count", 3)
    flow_count = pop_count(spec, params, "flow_count", flows_per_set)
    if flow_count > flows_per_set:
        raise ValueError(f"flow_count must be in [1, {flows_per_set}], got {flow_count}")
    base_sets = call_with_params("workload", spec.kind, multiflow_sets, topology,
                                 flows_per_set, set_count, seed=seed, **params)
    return [flow_set[:flow_count] for flow_set in base_sets]
