"""Tests for the run's liveness watchdog, :class:`~repro.experiments.refresh.FlowSupervisor`.

Its settings are validated, it is off by default and stays silent on a
healthy flow, a stalled flow ends after a bounded number of checks, and its
progress fingerprint (:func:`~repro.experiments.refresh.probe_flows`) moves
with rank growth but not with credit spending.  The safety checks (credit
floor, queue bound) are pinned in ``test_refresh.py``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.refresh import FlowSupervisor, mask_dead_nodes, probe_flows
from repro.experiments.runner import Environment, RunConfig, start_flows
from repro.sim.faults import FaultSpec
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain
from repro.topology.graph import Topology

PROTOCOLS = ("MORE", "ExOR", "Srcr")


def run_config(**overrides):
    defaults = dict(seed=1, total_packets=32, batch_size=16, packet_size=256,
                    coding_payload_size=16, max_duration=30.0)
    defaults.update(overrides)
    return RunConfig(**defaults)


def supervised(protocol, timeout, environment=None):
    """A 3-hop chain flow with a watchdog of period ``timeout`` held apart
    from ``start_flows``'s own (off), so the test can read its counters."""
    sim, handles = start_flows(chain(3, link_delivery=0.9), protocol, [(0, 3)],
                               run_config(), environment)
    supervisor = FlowSupervisor(sim, handles,
                                run_config(progress_timeout=timeout)).install()
    sim.run(stop_condition=sim.stats.all_flows_complete)
    return handles[0].record, supervisor


class TestValidation:
    @pytest.mark.parametrize("timeout", (0.0, -0.5))
    def test_rejects_nonpositive_progress_timeout(self, timeout):
        with pytest.raises(ValueError, match="progress_timeout must be positive"):
            RunConfig(progress_timeout=timeout)


class TestHealthyRuns:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_supervised_healthy_flow_completes_silently(self, protocol):
        record, supervisor = supervised(protocol, timeout=0.05)
        assert record.completed and not record.aborted
        assert record.abort_reason == ""
        assert supervisor.total_replans == 0 and supervisor.aborts == 0

    def test_watchdog_off_by_default(self):
        assert RunConfig().progress_timeout == math.inf
        sim = Simulator(chain(3, link_delivery=0.9), SimConfig(seed=0))
        stub = SimpleNamespace(flow_id=1, replan=lambda control: None)
        supervisor = FlowSupervisor(sim, [stub], RunConfig())
        assert not supervisor.enabled
        supervisor.install()
        assert sim.events.empty  # not even a tick is scheduled


class TestStallDetection:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_stranded_flow_aborts_after_bounded_checks(self, protocol):
        # Both relays die mid-batch and never recover.
        stranded = Environment(faults=FaultSpec(
            "scheduled", {"downs": {1: [[0.01, 1e9]], 2: [[0.01, 1e9]]}}))
        record, supervisor = supervised(protocol, timeout=0.5,
                                        environment=stranded)
        assert record.aborted and not record.completed
        # A baseline, MAX_REPLANS re-plans, then the abort at the next check.
        assert supervisor.total_replans == FlowSupervisor.MAX_REPLANS
        assert supervisor.aborts == 1
        assert record.end_time == pytest.approx(
            (FlowSupervisor.MAX_REPLANS + 2) * 0.5)
        assert record.abort_reason.startswith(
            "no progress for 0.5s after 3 recovery re-plan(s); down nodes [1, 2]; "
            f"delivered {record.delivered_packets}/32")


def probed_sim():
    """A simulator with flow 1 registered and duck-typed agents on its
    source (node 0), relay (node 1) and destination (node 3)."""
    sim = Simulator(chain(3, link_delivery=0.9), SimConfig(seed=0))
    sim.stats.register_flow(1, source=0, destination=3, total_packets=8,
                            packet_size=256, start_time=0.0)
    source = SimpleNamespace(current_batch=0, acked=set())
    relay = SimpleNamespace(credit=0.5)
    destination = SimpleNamespace(current_batch=0, completed=[],
                                  decoder=SimpleNamespace(rank=0))
    sim.nodes[0].agent = SimpleNamespace(source_flows={1: source},
                                         queues={1: [0, 0]})
    sim.nodes[1].agent = SimpleNamespace(forward_flows={1: relay})
    sim.nodes[3].agent = SimpleNamespace(destination_flows={1: destination})
    return sim, relay, destination


class TestProgressFingerprint:
    def test_rank_growth_is_progress(self):
        sim, _, destination = probed_sim()
        before = probe_flows(sim)[1]
        destination.decoder.rank = 5
        after = probe_flows(sim)[1]
        assert after["progress"] != before["progress"]
        assert (before["rank"], after["rank"]) == (0, 5)

    def test_credit_spending_is_not_progress(self):
        sim, relay, _ = probed_sim()
        before = probe_flows(sim)[1]
        relay.credit = -0.5
        after = probe_flows(sim)[1]
        assert after["progress"] == before["progress"]
        assert after["credits"] == {1: -0.5}
        assert after["queued"] == {0: 2}

    def test_finished_flows_are_not_probed(self):
        sim, _, _ = probed_sim()
        assert list(probe_flows(sim)) == [1]
        sim.stats.record_abort(1, 0.0, reason="test")
        assert probe_flows(sim) == {}


class TestMaskDeadNodes:
    def test_nothing_dead_returns_the_topology_itself(self):
        topology = chain(3, link_delivery=0.9)
        assert mask_dead_nodes(topology, frozenset()) is topology

    def test_dead_node_links_are_zeroed_and_the_layout_kept(self):
        delivery = np.full((3, 3), 0.5)
        positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        topology = Topology(delivery, positions=positions, names=["a", "b", "c"])
        masked = mask_dead_nodes(topology, frozenset({1}))
        matrix = masked.delivery_matrix()
        assert not matrix[1, :].any() and not matrix[:, 1].any()
        assert matrix[0, 2] == matrix[2, 0] == 0.5
        assert masked.node_positions() == topology.node_positions()
        assert [node.name for node in masked.nodes] == ["a", "b", "c"]
