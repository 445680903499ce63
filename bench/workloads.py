"""The five workloads, as literal specs built from public constructors.

Every workload is a closed loop with one caller in one process: a *unit*
is a fixed list of flows (or sweep cells) run back to back at one run
seed, and the harness runs unit after unit, each at the next run seed of
the stream it derives from ``--seed``.  Topologies, endpoints and transfer
sizes are part of the workload; the seed decides every loss, backoff and
coding coefficient.  The program under test only ever sees the specs.

Three choices keep the units comparable from seed to seed, which the
benchmark needs because runs at different seeds are gated against each
other (``README.md`` has the measurements behind them):

* Endpoints are fixed (``PAIR_SEED``), not drawn from ``--seed``: pairs one
  to five hops apart cost anything from half to twice the mean.
* ``estimation_probes=0`` — the control plane plans from the expected
  probe delivery (``p ** 0.45``) rather than a 100-probe sample of it.
  With the sample the plan depends on the run seed, and on the 200-node
  mesh one plan in three strands its flow until ``max_duration``: an
  operation that fails for a reason no optimisation can touch.
  ``probe_estimated_topology`` still runs for every flow.
* ``max_relays=10`` on both meshes, as the ``kilonode`` preset has it:
  uncapped plans at that density spend their time waiting for batch ACKs.

Specs avoid the ``engine=`` / ``decode_engine=`` / ``kernel=`` /
``vectorized_medium`` knobs, ``run_cells`` and the ``Legacy*`` classes, all
of which ROADMAP item 2 deletes, and the preset registry, whose entries are
free to change.  Why each workload exists is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

from bench import OUT_DIR
from repro.experiments import orchestrator
from repro.experiments.runner import PROTOCOLS, RunConfig, run_flows, run_single_flow
from repro.experiments.workloads import multiflow_sets, random_pairs
from repro.protocols.more import setup_more_flow
from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import indoor_testbed, random_geometric

#: Selection seed for the fixed endpoint lists (not the run seed).
PAIR_SEED = 1


@dataclass
class Outcome:
    """What one unit produced: results to digest, and what went wrong."""

    results: list[dict[str, Any]]
    errors: list[str] = dataclasses.field(default_factory=list)
    info: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds what every unit shares (topology, endpoints); part of set-up.
    prepare: Callable[[], Any]
    #: Runs one unit at one run seed.
    run: Callable[[Any, int], Outcome]
    #: Extra output check run once during set-up; returns error strings.
    verify: Callable[[Any, int], list[str]] | None = None


def _testbed():
    return indoor_testbed(floors=3, seed=7)


# --------------------------------------------------------------------------- #
# 1. testbed_protocols — the Fig 4-2 method
# --------------------------------------------------------------------------- #

def _prepare_testbed_protocols():
    topology = _testbed()
    return topology, random_pairs(topology, 8, seed=PAIR_SEED)


def _run_testbed_protocols(context, run_seed: int) -> Outcome:
    topology, pairs = context
    config = RunConfig(total_packets=64, batch_size=32, vector_only=True,
                       estimation_probes=0, seed=run_seed)
    return Outcome([
        dataclasses.asdict(run_single_flow(topology, protocol, source, destination,
                                           config=config))
        for source, destination in pairs
        for protocol in PROTOCOLS
    ])


# --------------------------------------------------------------------------- #
# 2. coded_payload — MORE with real 1500-byte payload coding
# --------------------------------------------------------------------------- #

#: (index into the pair list, batch size K, packets): Fig 4-7's extremes.
_CODED_FLOWS = ((0, 32, 64), (1, 128, 128))
_PACKET_SIZE = 1500


def _prepare_coded_payload():
    topology = _testbed()
    return topology, random_pairs(topology, 2, seed=PAIR_SEED, min_hops=2)


def _run_coded_payload(context, run_seed: int) -> Outcome:
    topology, pairs = context
    results = []
    for pair_index, batch_size, packets in _CODED_FLOWS:
        source, destination = pairs[pair_index]
        config = RunConfig(total_packets=packets, batch_size=batch_size,
                           packet_size=_PACKET_SIZE,
                           coding_payload_size=_PACKET_SIZE,
                           estimation_probes=0, seed=run_seed)
        results.append(dataclasses.asdict(
            run_single_flow(topology, "MORE", source, destination, config=config)))
    return Outcome(results)


def _verify_coded_payload(context, run_seed: int) -> list[str]:
    """One real file through MORE: the decoded bytes must be the file."""
    topology, pairs = context
    source, destination = pairs[0]
    file_bytes = bytes((index * 131 + run_seed) % 251
                       for index in range(40 * _PACKET_SIZE))
    sim = Simulator(topology, SimConfig(seed=run_seed))
    handle = setup_more_flow(sim, topology, source, destination,
                             file_bytes=file_bytes, batch_size=32,
                             packet_size=_PACKET_SIZE, seed=run_seed)
    sim.run(until=120.0, stop_condition=sim.stats.all_flows_complete)
    if handle.decoded_bytes()[:len(file_bytes)] != file_bytes:
        return [f"coded_payload: decoded bytes differ from the {len(file_bytes)}-byte file"]
    return []


# --------------------------------------------------------------------------- #
# 3. kilonode_flow — one capped MORE flow across 1000 nodes
# --------------------------------------------------------------------------- #

def _prepare_kilonode_flow():
    return random_geometric(node_count=1000, area=940.0, seed=21)


def _run_kilonode_flow(topology, run_seed: int) -> Outcome:
    config = RunConfig(total_packets=64, batch_size=32, coding_payload_size=16,
                       max_duration=60.0, max_relays=10, estimation_probes=0,
                       seed=run_seed)
    return Outcome([dataclasses.asdict(
        run_single_flow(topology, "MORE", 441, 0, config=config))])


# --------------------------------------------------------------------------- #
# 4. multiflow_contention — the Fig 4-5 method
# --------------------------------------------------------------------------- #

def _prepare_multiflow_contention():
    topology = _testbed()
    return topology, multiflow_sets(topology, 4, 2, seed=PAIR_SEED)


def _run_multiflow_contention(context, run_seed: int) -> Outcome:
    topology, flow_sets = context
    config = RunConfig(total_packets=64, batch_size=32, estimation_probes=0,
                       seed=run_seed)
    return Outcome([
        dataclasses.asdict(result)
        for flow_set in flow_sets
        for protocol in PROTOCOLS
        for result in run_flows(topology, protocol, flow_set, config=config)
    ])


# --------------------------------------------------------------------------- #
# 5. mesh_seed_sweep — a cold sweep and its warm replay through the store
# --------------------------------------------------------------------------- #

_SWEEP_CELLS = 2


def _prepare_mesh_seed_sweep():
    return ScenarioSpec(
        name="bench_mesh_seed_sweep",
        topology=TopologySpec("random_geometric",
                              {"node_count": 200, "area": 420.0, "seed": 11}),
        workload=WorkloadSpec("explicit", {"pairs": [[150, 3]]}),
        protocols=("MORE",),
        run={"total_packets": 64, "batch_size": 32, "coding_payload_size": 16,
             "max_duration": 60.0, "max_relays": 10, "estimation_probes": 0},
    )


def _run_mesh_seed_sweep(spec: ScenarioSpec, run_seed: int) -> Outcome:
    sweep = dataclasses.replace(
        spec, seeds=tuple(run_seed + offset for offset in range(_SWEEP_CELLS)))
    # A fresh store per unit, inside the checkout and never the default
    # ``results/``: store and journal are written, read back and deleted.
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="store-", dir=OUT_DIR) as store_dir:
        cold = orchestrator.run_sweep(sweep, workers=1, results_dir=store_dir)
        started = time.perf_counter()
        warm = orchestrator.run_sweep(sweep, workers=1, results_dir=store_dir)
        warm_ms = (time.perf_counter() - started) * 1e3
    results = [cell.to_dict() for cell in cold.cells]
    errors = []
    if cold.computed_cells != len(cold.cells):
        errors.append(f"mesh_seed_sweep: cold sweep computed {cold.computed_cells} "
                      f"of {len(cold.cells)} cells in an empty store")
    if warm.computed_cells:
        errors.append(f"mesh_seed_sweep: warm replay recomputed {warm.computed_cells} cell(s)")
    if [cell.to_dict() for cell in warm.cells] != results:
        errors.append("mesh_seed_sweep: warm replay returned different bytes")
    return Outcome(results, errors, {
        "cells": float(len(cold.cells)),
        "warm_replay_ms": warm_ms,
        "warm_hits": float(warm.cached_cells),
        "warm_recomputed": float(warm.computed_cells),
    })


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload("testbed_protocols", _prepare_testbed_protocols, _run_testbed_protocols),
    Workload("coded_payload", _prepare_coded_payload, _run_coded_payload,
             _verify_coded_payload),
    Workload("kilonode_flow", _prepare_kilonode_flow, _run_kilonode_flow),
    Workload("multiflow_contention", _prepare_multiflow_contention,
             _run_multiflow_contention),
    Workload("mesh_seed_sweep", _prepare_mesh_seed_sweep, _run_mesh_seed_sweep),
)}
