"""A finished run keeps its record, not its machinery.

``run_flows`` closes its simulator (``Simulator.close``) once it has built
the results: the agents, their coding state, the pending events and the
frames go, and nothing holds the simulator in a reference cycle.  What a
caller reads afterwards — the flow records, the clock, the event count,
the MAC, medium and fault counters — is what it was before the close.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    Environment,
    RunConfig,
    run_flows,
    run_single_flow,
    start_flows,
)
from repro.experiments.workloads import multiflow_sets, random_pairs
from repro.sim.faults import FaultSpec
from repro.sim.simulator import Simulator
from repro.topology.generator import indoor_testbed, random_geometric

#: A crash/recover mesh with both halves of the control plane armed: the
#: refresher re-plans every second, the supervisor watches for stalls.
CHURN_MESH = dict(node_count=16, area=120.0, seed=2)
CHURN = Environment(faults=FaultSpec("crash_recover", {
    "mean_uptime": 8.0, "mean_downtime": 1.5, "protect": [0, 12, 3, 9]}))
CHURN_CONFIG = RunConfig(total_packets=32, coding_payload_size=16, refresh_period=1.0,
                         progress_timeout=4.0, max_duration=30.0, seed=1)
CHURN_PAIRS = [(0, 12), (3, 9)]


@pytest.fixture(scope="module")
def testbed():
    return indoor_testbed(floors=3, seed=7)


def record(sim: Simulator, handles) -> dict:
    """Everything ``FlowResult``, the scenario executor and the benchmark
    harness read off a finished simulator."""
    faults = sim.faults
    return {
        "flows": [repr(flow) for flow in sim.stats.flows.values()],
        "handles": [repr(handle.record) for handle in handles],
        "throughputs": [flow.throughput_pkts(now=sim.now)
                        for flow in sim.stats.flows.values()],
        "all_complete": sim.stats.all_flows_complete(),
        "data_transmissions": sim.stats.total_data_transmissions(),
        "per_node": sorted(sim.stats.data_transmissions.items()),
        "now": sim.now,
        "events": sim.events.processed,
        "mac": [(stats.data_transmissions, stats.control_transmissions,
                 stats.unicast_successes, stats.unicast_drops, stats.retries,
                 stats.busy_time)
                for stats in (node.mac.stats for node in sim.nodes)],
        "medium": (sim.medium.transmissions, sim.medium.receptions,
                   sim.medium.collisions, sim.medium.captures),
        "faults": None if faults is None else (faults.crashes, faults.recoveries),
    }


def _simulators_alive(run) -> list[bool]:
    """Whether each simulator ``run()`` built is still alive once it
    returns, read with the collector off: only reference counting may free
    them (a young cycle would fall to the collector's next pass)."""
    built: list[weakref.ref] = []
    original = Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        built.append(weakref.ref(sim))

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Simulator, "__init__", recording_init)
            run()
        return [ref() is not None for ref in built]
    finally:
        if enabled:
            gc.enable()


def test_finished_simulators_need_no_collector(testbed):
    """Three MORE flows and a faulted two-flow run under a refresher and a
    supervisor: every simulator is freed when ``run_flows`` lets go of it,
    without a ``gc.collect()``.  Before simulators were closed, all four
    stayed alive as cyclic garbage until the collector's next full pass."""
    source, destination = random_pairs(testbed, 1, seed=1, min_hops=2)[0]
    config = RunConfig(total_packets=32, seed=1)

    def run():
        for _ in range(3):
            assert run_single_flow(testbed, "MORE", source, destination,
                                   config=config).completed
        results = run_flows(random_geometric(**CHURN_MESH), "MORE", CHURN_PAIRS,
                            CHURN_CONFIG, CHURN)
        assert len(results) == 2

    assert _simulators_alive(run) == [False] * 4


def _single(protocol):
    def start(testbed):
        pair = random_pairs(testbed, 1, seed=1, min_hops=2)
        return start_flows(testbed, protocol, pair, RunConfig(total_packets=32, seed=1))
    return start


def _multiflow(testbed):
    flow_set = multiflow_sets(testbed, 4, 1, seed=1)[0]
    return start_flows(testbed, "MORE", flow_set, RunConfig(total_packets=32, seed=1))


def _faulted(testbed):
    return start_flows(random_geometric(**CHURN_MESH), "ExOR", CHURN_PAIRS,
                       CHURN_CONFIG, CHURN)


RUNS = {"MORE": _single("MORE"), "ExOR": _single("ExOR"), "Srcr": _single("Srcr"),
        "multiflow": _multiflow, "faulted": _faulted}


@pytest.mark.parametrize("name", RUNS)
def test_close_keeps_the_record(name, testbed):
    """The record reads the same before and after ``close()``, and after a
    second one; the machinery is gone, and the run cannot resume."""
    sim, handles = RUNS[name](testbed)
    sim.run(stop_condition=sim.stats.all_flows_complete)
    before = record(sim, handles)
    assert before["data_transmissions"] > 0
    if name == "faulted":
        assert before["faults"][0] > 0
    sim.close()
    assert record(sim, handles) == before
    sim.close()
    assert record(sim, handles) == before
    assert sim.closed and sim.events.empty
    assert all(node.agent is None and node.sim is None and node.mac.sim is None
               and node.mac.agent is None for node in sim.nodes)
    assert sim.faults is None or sim.faults.sim is None
    with pytest.raises(RuntimeError, match="closed"):
        sim.run()


def test_run_flows_closes_its_simulator(testbed):
    """The simulator ``run_flows`` returns from is closed, and its record
    gives the results it returned."""
    started = []

    def recording_start(*args, **kwargs):
        started.append(start_flows(*args, **kwargs))
        return started[-1]

    flow_set = multiflow_sets(testbed, 4, 1, seed=1)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "start_flows", recording_start)
        results = run_flows(testbed, "Srcr", flow_set, RunConfig(total_packets=32, seed=1))
    (sim, handles), = started
    assert sim.closed
    assert [result.delivered_packets for result in results] == \
        [handle.record.delivered_packets for handle in handles]
    assert {result.data_transmissions for result in results} == \
        {sim.stats.total_data_transmissions()}


@pytest.mark.parametrize("batch_size, packets", [(32, 64), (128, 128)])
def test_a_held_finished_run_retains_its_record_only(testbed, batch_size, packets):
    """A simulator held after ``run_flows`` (as the benchmark holds every
    one to read its counters) retains under 50 kB of traced memory for a
    MORE flow of 1500-byte payloads, 15 kB measured at either K: its
    counters and tables, not the agents' batches, buffers and operands or
    the frames still in the medium's history (1.0 MB at K = 32 and 3.6 MB
    at K = 128 before runs were closed)."""
    source, destination = random_pairs(testbed, 2, seed=1, min_hops=2)[1]
    config = RunConfig(total_packets=packets, batch_size=batch_size, packet_size=1500,
                       coding_payload_size=1500, estimation_probes=0, seed=1)
    held: list[Simulator] = []
    original = runner.start_flows

    def holding_start(*args, **kwargs):
        sim, handles = original(*args, **kwargs)
        held.append(sim)
        return sim, handles

    # Warm-up: the same run fills the mesh's shared medium tables and
    # loads what the run path imports lazily.
    run_single_flow(testbed, "MORE", source, destination, config=config)
    gc.collect()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "start_flows", holding_start)
        tracemalloc.start()
        try:
            result = run_single_flow(testbed, "MORE", source, destination, config=config)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.completed and held[0].closed
    assert retained < 50_000, retained
