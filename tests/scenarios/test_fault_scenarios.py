"""Fault presets and graceful degradation at the scenario layer.

The acceptance contract of the fault subsystem, end to end:

* crashing **every** MORE forwarder mid-batch yields a structured
  ``FlowAborted`` outcome (``FlowResult.aborted`` + a reason naming the
  down nodes, with MORE's rank and credits) for all three protocols —
  never a hang;
* the outcome is deterministic: parallel sweep cells equal serial ones bit
  for bit with a crash/recover process active;
* the ``kilonode_stranded`` regression preset reconstructs the kilonode
  stranded-flow pathology, and the progress watchdog's recovery re-plans
  deliver the file, because a batch whose rank still grows is progressing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.orchestrator import run_sweep
from repro.experiments.runner import (
    Environment,
    RunConfig,
    run_single_flow,
    start_flows,
)
from repro.scenarios import build_pairs, build_topology, get_preset, run_cell
from repro.sim.faults import FaultSpec
from repro.topology.graph import Topology


def chain_topology(hops=3, delivery=0.9):
    n = hops + 1
    matrix = np.zeros((n, n))
    for i in range(hops):
        matrix[i, i + 1] = matrix[i + 1, i] = delivery
    return Topology(matrix)


def run_with_relays_down(protocol, until=1e9):
    """One flow over the 3-hop chain whose two relays die mid-batch and stay
    down until ``until``."""
    config = RunConfig(seed=1, total_packets=32, batch_size=16, packet_size=256,
                       coding_payload_size=16, max_duration=30.0,
                       refresh_period=0.5, progress_timeout=0.5)
    outage = FaultSpec("scheduled", {"downs": {1: [[0.01, until]],
                                               2: [[0.01, until]]}})
    return run_single_flow(chain_topology(), protocol, 0, 3, config=config,
                           environment=Environment(faults=outage))


class TestStructuredAborts:
    @pytest.mark.parametrize("protocol", ("MORE", "ExOR", "Srcr"))
    def test_all_forwarders_crashed_aborts_instead_of_hanging(self, protocol):
        result = run_with_relays_down(protocol)
        assert result.aborted and not result.completed
        assert "no progress" in result.abort_reason
        assert "down nodes [1, 2]" in result.abort_reason
        assert f"delivered {result.delivered_packets}/32" in result.abort_reason
        # Only MORE has a decoder and forwarder credits to report.
        assert ("destination rank" in result.abort_reason) == (protocol == "MORE")
        assert ("forwarder credits [1:" in result.abort_reason) \
            == (protocol == "MORE")
        # The abort fired after the supervisor's bounded re-plans, long
        # before max_duration: graceful degradation, not a timeout.
        assert result.duration < 30.0

    @pytest.mark.parametrize("protocol", ("MORE", "ExOR", "Srcr"))
    def test_abort_is_deterministic(self, protocol):
        first = run_with_relays_down(protocol)
        second = run_with_relays_down(protocol)
        assert (first.aborted, first.abort_reason, first.duration,
                first.delivered_packets) \
            == (second.aborted, second.abort_reason, second.duration,
                second.delivered_packets)

    def test_recovery_before_timeout_completes_normally(self):
        result = run_with_relays_down("MORE", until=0.2)
        assert result.completed and not result.aborted


class TestFaultPresets:
    def test_fault_presets_registered(self):
        churn = get_preset("node_churn_mesh")
        assert churn.faults.kind == "crash_recover"
        assert churn.run["progress_timeout"] == 4.0
        sweep = get_preset("crash_recover_sweep")
        assert "faults.mean_uptime" in sweep.sweep
        assert len(sweep.expand()) == 3

    def test_crash_recover_sweep_parallel_matches_serial(self):
        spec = get_preset("crash_recover_sweep")
        spec.run["total_packets"] = 32  # keep the two-worker run sub-second
        serial = run_sweep(spec, workers=1, results_dir=None)
        parallel = run_sweep(spec, workers=2, results_dir=None)
        assert [cell.to_dict() for cell in serial.cells] \
            == [cell.to_dict() for cell in parallel.cells]

    def test_aborted_flows_surface_in_cell_summary(self):
        spec = get_preset("crash_recover_sweep")
        spec.protocols = ("MORE",)
        spec.sweep = {}
        # Make the churn fatal: every relay dead from t=0.01, no recovery.
        spec.faults.kind = "scheduled"
        spec.faults.params = {"downs": {1: [[0.01, 1e9]], 2: [[0.01, 1e9]],
                                        3: [[0.01, 1e9]]}}
        result = run_cell(spec.expand()[0])
        assert result.summary["MORE_aborted"] == 1.0
        (note,) = result.meta["aborted_flows"]["MORE"]
        assert note.startswith("flow 0->4:") and "no progress" in note


class TestKilonodeStrandedRegression:
    def test_watchdog_counts_rank_growth_as_progress(self):
        """Uncapped 10% pruning on the kilonode mesh strands the flow until
        the watchdog re-plans it; the re-planned batches then take longer
        than one ``progress_timeout`` to decode.  A watchdog that looked only
        at delivery counters aborted the flow at t = 6.5 s with 32/64
        delivered; one that counts rank growth delivers the whole file."""
        spec = get_preset("kilonode_stranded")
        assert "max_relays" not in spec.run  # the uncapped rule IS the bug
        topology = build_topology(spec.topology)
        config = spec.run_config(1)
        sim, (handle,) = start_flows(topology, "MORE",
                                     build_pairs(spec.workload, topology, 1),
                                     config, spec.environment())
        replans = []
        replan = handle.replan
        handle.replan = lambda control: (replans.append(sim.now), replan(control))
        sim.run(stop_condition=sim.stats.all_flows_complete)
        record = handle.record
        assert record.completed and not record.aborted, record.abort_reason
        assert replans
        assert record.end_time < config.max_duration / 2
