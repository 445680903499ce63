"""Tests for the runtime liveness monitor (:mod:`repro.sim.monitor`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import Environment, RunConfig, run_single_flow
from repro.sim.faults import FaultSpec
from repro.sim.monitor import SimMonitor, StallDiagnosis
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.graph import Topology


def chain_topology(hops=3, delivery=0.9):
    n = hops + 1
    matrix = np.zeros((n, n))
    for i in range(hops):
        matrix[i, i + 1] = matrix[i + 1, i] = delivery
    return Topology(matrix)


def run_config(**overrides):
    defaults = dict(seed=1, total_packets=32, batch_size=16, packet_size=256,
                    coding_payload_size=16, max_duration=30.0)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestValidation:
    def test_rejects_nonpositive_interval(self):
        sim = Simulator(chain_topology(), SimConfig(seed=0))
        with pytest.raises(ValueError, match="interval"):
            SimMonitor(sim, interval=0.0)

    def test_rejects_zero_stall_intervals(self):
        sim = Simulator(chain_topology(), SimConfig(seed=0))
        with pytest.raises(ValueError, match="stall_intervals"):
            SimMonitor(sim, interval=1.0, stall_intervals=0)

    def test_config_rejects_nonpositive_monitor_interval(self):
        with pytest.raises(ValueError, match="monitor_interval"):
            SimConfig(seed=0, monitor=True, monitor_interval=0.0)


class TestHealthyRuns:
    def test_monitored_healthy_flow_completes_silently(self):
        result = run_single_flow(chain_topology(), "MORE", 0, 3,
                                 config=run_config(monitor=True,
                                                   monitor_interval=0.05))
        assert result.completed and not result.aborted

    def test_monitor_off_by_default(self):
        sim = Simulator(chain_topology(), SimConfig(seed=0))
        assert sim.monitor is None


class TestStallDetection:
    def run_stranded(self, protocol, **overrides):
        # Both relays die mid-batch and never recover; without the
        # supervisor's progress_timeout the flow would hang to max_duration.
        stranded = Environment(faults=FaultSpec(
            "scheduled", {"downs": {1: [[0.01, 1e9]], 2: [[0.01, 1e9]]}}))
        return run_single_flow(chain_topology(), protocol, 0, 3,
                               config=run_config(monitor=True, **overrides),
                               environment=stranded)

    @pytest.mark.parametrize("protocol", ("MORE", "ExOR", "Srcr"))
    def test_stranded_flow_raises_one_screen_diagnosis(self, protocol):
        with pytest.raises(StallDiagnosis) as excinfo:
            self.run_stranded(protocol)
        diagnosis = excinfo.value
        assert "no progress" in diagnosis.reason
        assert diagnosis.down_nodes == frozenset({1, 2})
        assert list(diagnosis.flows) and diagnosis.ticks >= 1
        report = diagnosis.render()
        assert "down nodes: [1, 2]" in report
        assert "last progress" in report

    def test_flagged_within_one_check_interval_of_the_stall(self):
        with pytest.raises(StallDiagnosis) as excinfo:
            self.run_stranded("MORE", monitor_interval=0.5)
        # Crash at t=0.01: the next check that sees a frozen fingerprint
        # (at most two intervals after the crash) must raise.
        assert excinfo.value.now <= 0.01 + 2 * 0.5

    def test_more_diagnosis_carries_rank_and_credits(self):
        with pytest.raises(StallDiagnosis) as excinfo:
            self.run_stranded("MORE")
        (info,) = excinfo.value.flows.values()
        assert info["total"] == 32
        assert "credits" in info and "rank" in info


class TestDeadlockDetection:
    def test_drained_queue_with_incomplete_flow_is_a_deadlock(self):
        sim = Simulator(chain_topology(), SimConfig(seed=0, monitor=True))
        sim.stats.register_flow(1, source=0, destination=3, total_packets=8,
                                packet_size=256, start_time=0.0)
        # No agents, no traffic: after the monitor's first tick the queue is
        # empty while flow 1 is incomplete — nothing will ever run again.
        with pytest.raises(StallDiagnosis, match="deadlock"):
            sim.run(until=5.0)


class TestRendering:
    def test_render_is_one_screen(self):
        diagnosis = StallDiagnosis(
            "no progress on flow(s) [1]", now=2.0,
            flows={1: {"delivered": 3, "total": 32, "last_progress": 1.0,
                       "rank": 5, "credits": {2: 1.25}, "queued": 4}},
            down_nodes=frozenset({2}), ticks=2)
        report = str(diagnosis)
        assert report.splitlines()[0].startswith("stall diagnosis at t=2.000s")
        assert "flow 1: 3/32 pkts" in report
        assert "forwarder credits: 2:1.25" in report
        assert "queued packets: 4" in report
