"""Tests for the Srcr best-path baseline."""

from __future__ import annotations

import numpy as np

from repro.metrics.etx import best_path
from repro.protocols.srcr import SrcrAgent, SrcrFlowSpec, setup_srcr_flow
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain, two_hop_relay


def run_srcr(topology, source, destination, seed=1, until=60.0, **kwargs):
    sim = Simulator(topology, SimConfig(seed=seed))
    handle = setup_srcr_flow(sim, topology, source, destination, **kwargs)
    sim.run(until=until, stop_condition=sim.stats.all_flows_complete)
    return sim, handle


class TestFlowSpec:
    def test_next_hop(self):
        topology = chain(3, link_delivery=0.9)
        sim = Simulator(topology, SimConfig(seed=1))
        plan = setup_srcr_flow(sim, topology, 0, 3, total_packets=10).spec.plan
        assert plan.route == [0, 1, 2, 3]
        # Every hop but the destination, and no node off the route.
        assert plan.next_hop == {0: 1, 1: 2, 2: 3}

    def test_frame_size_includes_header(self):
        spec = SrcrFlowSpec(flow_id=1, source=0, destination=1,
                            packet_size=1500, total_packets=10)
        assert spec.frame_size() > 1500


class TestTransfer:
    def test_single_hop_delivery(self):
        topo = chain(1, link_delivery=0.9)
        sim, handle = run_srcr(topo, 0, 1, total_packets=20, packet_size=500)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        assert record.delivered_packets == 20

    def test_multi_hop_delivery_over_lossy_links(self):
        topo = chain(3, link_delivery=0.6)
        sim, handle = run_srcr(topo, 0, 3, total_packets=20, packet_size=500)
        assert sim.stats.flows[handle.flow_id].completed

    def test_route_follows_best_etx_path(self, relay_topology):
        sim, handle = run_srcr(relay_topology, 0, 2, total_packets=10, packet_size=500)
        assert handle.spec.plan.route == best_path(relay_topology, 0, 2)
        # Nodes not on the route never transmit data for the flow.
        assert set(sim.stats.data_transmissions) <= set(handle.spec.plan.route)

    def test_ignores_overheard_packets(self):
        """Traditional routing discards fortunate receptions (Section 2.1)."""
        topo = two_hop_relay()
        sim, handle = run_srcr(topo, 0, 2, total_packets=30, packet_size=500)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        # Every delivered packet crossed both hops: the relay transmits at
        # least once per packet even though the destination overhears ~49%.
        assert sim.stats.data_transmissions.get(1, 0) >= record.total_packets

    def test_transmission_count_tracks_path_etx(self):
        topo = chain(2, link_delivery=0.5)
        sim, handle = run_srcr(topo, 0, 2, total_packets=40, packet_size=500, seed=5)
        total_tx = sim.stats.total_data_transmissions()
        expected = 40 * 4.0  # path ETX = 2 + 2
        assert expected * 0.7 < total_tx < expected * 1.4

    def test_duplicates_counted_not_delivered_twice(self):
        topo = chain(1, link_delivery=0.9)
        sim, handle = run_srcr(topo, 0, 1, total_packets=10, packet_size=500)
        record = sim.stats.flows[handle.flow_id]
        assert record.delivered_packets == 10


class TestAutorateIntegration:
    def test_autorate_flow_completes(self):
        topo = chain(2, link_delivery=0.6)
        sim, handle = run_srcr(topo, 0, 2, total_packets=20, packet_size=500,
                               use_autorate=True)
        assert sim.stats.flows[handle.flow_id].completed
        agent = sim.nodes[0].agent
        assert isinstance(agent, SrcrAgent)
        assert agent.rate_controller is not None


class TestControlPlaneEstimates:
    def test_optimistic_estimates_can_pick_a_worse_route(self):
        """The control plane routes on its (estimated) view, not ground truth."""
        from repro.topology.graph import Topology
        # True: direct link poor (0.3), relay path strong (0.9 * 0.9).
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        matrix[1, 2] = matrix[2, 1] = 0.9
        matrix[0, 2] = matrix[2, 0] = 0.3
        true_topo = Topology(matrix)
        # Estimates: the direct link looks great (0.95).
        est = np.array(matrix)
        est[0, 2] = est[2, 0] = 0.95
        estimated = Topology(est)
        sim = Simulator(true_topo, SimConfig(seed=1))
        handle = setup_srcr_flow(sim, true_topo, 0, 2, total_packets=10, packet_size=500,
                                 control_topology=estimated)
        assert handle.spec.plan.route == [0, 2]
        sim.run(until=60, stop_condition=sim.stats.all_flows_complete)
        assert sim.stats.flows[handle.flow_id].completed
