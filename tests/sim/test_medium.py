"""Tests for the broadcast medium: losses, carrier sense, collisions, capture."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.more import setup_more_flow
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import WirelessMedium
from repro.sim.radio import ChannelConfig, SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import random_geometric
from repro.topology.graph import Topology
from repro.topology.mobility import MarkovLinkChurn


def make_frame(sender, receiver=BROADCAST, flow=1):
    return Frame(sender=sender, receiver=receiver, kind=FrameKind.DATA, flow_id=flow,
                 size_bytes=1500)


def make_medium(matrix, seed=0, **channel_kwargs):
    topo = Topology(np.asarray(matrix, dtype=float))
    channel = ChannelConfig(**channel_kwargs)
    return WirelessMedium(topo, channel, np.random.default_rng(seed)), topo


class TestLossModel:
    def test_perfect_link_always_delivers(self):
        medium, _ = make_medium([[0, 1.0], [1.0, 0]])
        for i in range(20):
            start = i * 0.01
            tx = medium.begin(make_frame(0), now=start, airtime=0.002)
            assert medium.complete(tx, now=start + 0.002) == [1]

    def test_zero_link_never_delivers(self):
        medium, _ = make_medium([[0, 0.0], [0.0, 0]])
        tx = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.complete(tx, now=0.002) == []

    def test_loss_statistics_match_probability(self):
        medium, _ = make_medium([[0, 0.5], [0.5, 0]], seed=2)
        received = 0
        for i in range(2000):
            start = i * 0.01
            tx = medium.begin(make_frame(0), now=start, airtime=0.002)
            received += len(medium.complete(tx, now=start + 0.002))
        assert 0.45 < received / 2000 < 0.55

    def test_broadcast_reaches_multiple_receivers(self):
        medium, _ = make_medium([[0, 1.0, 1.0], [1, 0, 0], [1, 0, 0]])
        tx = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert sorted(medium.complete(tx, now=0.002)) == [1, 2]

    def test_statistics_counters(self):
        medium, _ = make_medium([[0, 1.0], [1.0, 0]])
        tx = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        medium.complete(tx, now=0.002)
        assert medium.transmissions == 1
        assert medium.receptions == 1


class TestCarrierSense:
    def test_busy_while_audible_transmission_in_flight(self):
        medium, _ = make_medium([[0, 0.9, 0.9], [0.9, 0, 0.9], [0.9, 0.9, 0]])
        medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.is_busy(1, 0.001)
        assert medium.is_busy(0, 0.001)   # own transmission
        assert not medium.is_busy(1, 0.003)

    def test_far_node_does_not_sense(self):
        # Node 2 has no connectivity at all to node 0 and shares no good
        # common neighbour, so it cannot sense node 0's transmissions.
        matrix = [[0, 0.9, 0.0], [0.9, 0, 0.0], [0.0, 0.0, 0]]
        medium, _ = make_medium(matrix)
        medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert not medium.is_busy(2, 0.001)

    def test_hidden_terminals_with_common_neighbor_sense_each_other(self):
        """Two transmitters that both deliver well to a common receiver are
        within carrier-sense range even if they cannot decode each other."""
        matrix = [[0, 0.6, 0.0], [0.6, 0, 0.6], [0.0, 0.6, 0]]
        medium, _ = make_medium(matrix)
        assert medium.can_sense(0, 2)
        assert medium.can_sense(2, 0)

    def test_busy_until(self):
        medium, _ = make_medium([[0, 0.9], [0.9, 0]])
        medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.busy_until(1, 0.001) == pytest.approx(0.002)
        assert medium.busy_until(1, 0.005) == pytest.approx(0.005)

    def test_busy_horizon(self):
        """A node's own frame holds it busy as an audible one does."""
        medium, _ = make_medium([[0, 0.9, 0.0], [0.9, 0, 0.0], [0.0, 0.0, 0]])
        medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.busy_horizon(0, 0.001) == pytest.approx(0.002)
        assert medium.busy_horizon(1, 0.001) == pytest.approx(0.002)
        assert medium.busy_horizon(2, 0.001) == 0.001
        medium.begin(make_frame(1), now=0.001, airtime=0.002)
        assert medium.busy_horizon(0, 0.0015) == pytest.approx(0.003)
        assert medium.busy_horizon(0, 0.003) == 0.003


class TestCollisions:
    def test_overlapping_comparable_signals_collide(self):
        """Two overlapping transmissions of similar strength at the receiver
        destroy each other (no capture)."""
        matrix = [[0, 0.0, 0.6], [0.0, 0, 0.6], [0.6, 0.6, 0]]
        medium, _ = make_medium(matrix, seed=1, capture_probability=0.0)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        tx_b = medium.begin(make_frame(1), now=0.001, airtime=0.002)
        received_a = medium.complete(tx_a, now=0.002)
        received_b = medium.complete(tx_b, now=0.003)
        assert received_a == [] and received_b == []
        assert medium.collisions >= 1

    def test_capture_saves_much_stronger_frame(self):
        """With a large delivery margin the stronger frame survives (capture)."""
        matrix = [[0, 0.0, 0.9], [0.0, 0, 0.12], [0.9, 0.12, 0]]
        medium, _ = make_medium(matrix, seed=3, capture_probability=1.0,
                                capture_margin=0.35)
        captured = 0
        for i in range(50):
            start = i * 0.01
            tx_a = medium.begin(make_frame(0), now=start, airtime=0.002)
            tx_b = medium.begin(make_frame(1), now=start + 0.0005, airtime=0.002)
            if 2 in medium.complete(tx_a, now=start + 0.002):
                captured += 1
            medium.complete(tx_b, now=start + 0.0025)
        assert captured > 30
        assert medium.captures > 0

    def test_half_duplex_receiver(self):
        """A node transmitting cannot simultaneously receive."""
        matrix = [[0, 0.9], [0.9, 0]]
        medium, _ = make_medium(matrix)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        tx_b = medium.begin(make_frame(1), now=0.001, airtime=0.002)
        assert medium.complete(tx_a, now=0.002) == []
        assert medium.complete(tx_b, now=0.003) == []

    def test_non_overlapping_transmissions_do_not_interfere(self):
        matrix = [[0, 0.0, 1.0], [0.0, 0, 1.0], [1.0, 1.0, 0]]
        medium, _ = make_medium(matrix, interference_threshold=0.05)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.complete(tx_a, now=0.002) == [2]
        tx_b = medium.begin(make_frame(1), now=0.003, airtime=0.002)
        assert medium.complete(tx_b, now=0.005) == [2]

    def test_weak_interferer_below_threshold_ignored(self):
        matrix = [[0, 0.0, 1.0], [0.0, 0, 0.04], [1.0, 0.04, 0]]
        medium, _ = make_medium(matrix, interference_threshold=0.05)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        medium.begin(make_frame(1), now=0.0005, airtime=0.002)
        assert medium.complete(tx_a, now=0.002) == [2]


def _random_mesh_matrix(node_count: int, density: float, seed: int) -> np.ndarray:
    """An asymmetric random delivery matrix with about ``density`` links."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((node_count, node_count))
    matrix[rng.random((node_count, node_count)) >= density] = 0.0
    return matrix


_thresholds = st.floats(min_value=0.0, max_value=1.0)


class TestPerSenderTables:
    """The lazily derived per-sender tables vs the dense N×N oracle."""

    @staticmethod
    def _assert_rows_match_oracle(medium: WirelessMedium) -> None:
        oracle = WirelessMedium._build_sense_matrix(medium._delivery,
                                                    medium.channel)
        for sender in range(medium.topology.node_count):
            assert medium._sense_rows[sender] == oracle[sender].tolist()
            for listener in range(medium.topology.node_count):
                assert medium.can_sense(listener, sender) == oracle[sender, listener]

    @given(node_count=st.integers(min_value=2, max_value=12),
           density=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=10_000),
           sense=_thresholds, neighbor=_thresholds)
    @settings(max_examples=60, deadline=None)
    def test_sense_rows_equal_dense_oracle(self, node_count, density, seed,
                                           sense, neighbor):
        topology = Topology(_random_mesh_matrix(node_count, density, seed))
        channel = ChannelConfig(sense_threshold=sense,
                                neighbor_sense_threshold=neighbor)
        medium = WirelessMedium(topology, channel, np.random.default_rng(0))
        assert not medium._sense_rows  # nothing derived at build time
        self._assert_rows_match_oracle(medium)

    @given(node_count=st.integers(min_value=3, max_value=10),
           seed=st.integers(min_value=0, max_value=10_000),
           sense=_thresholds, neighbor=_thresholds)
    @settings(max_examples=30, deadline=None)
    def test_rows_are_rederived_after_an_epoch_advance(self, node_count, seed,
                                                       sense, neighbor):
        topology = Topology(_random_mesh_matrix(node_count, 0.7, seed))
        channel = ChannelConfig(sense_threshold=sense,
                                neighbor_sense_threshold=neighbor)
        churn = MarkovLinkChurn(seed=seed, epoch_length=1.0, mean_up_time=1.0,
                                mean_down_time=1.0)
        medium = WirelessMedium(topology, channel, np.random.default_rng(0),
                                mobility=churn)
        self._assert_rows_match_oracle(medium)
        tx = medium.begin(make_frame(0), now=0.5, airtime=0.002)
        medium.complete(tx, now=0.502)
        assert set(medium._plans) == {(0, ())}
        stale = dict(medium._sense_rows)
        medium.begin(make_frame(0), now=4.5, airtime=0.002)
        assert medium._epoch == 4
        assert not medium._sense_rows and not medium._plans
        self._assert_rows_match_oracle(medium)
        assert all(medium._sense_rows[sender] is not row
                   for sender, row in stale.items())

    def test_only_transmitters_get_tables(self):
        """One capped MORE flow on a 300-node mesh derives tables for the
        nodes that put a frame on the air and for no one else."""
        topology = random_geometric(node_count=300, area=515.0, seed=5)
        sim = Simulator(topology, SimConfig(seed=3))
        medium = sim.medium
        assert not medium._sense_rows and not medium._plans
        setup_more_flow(sim, topology, 17, 250, total_packets=32, batch_size=32,
                        coding_payload_size=16, max_relays=10, seed=3)
        sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
        assert sim.stats.all_flows_complete()
        transmitters = {node.node_id for node in sim.nodes
                        if node.mac.stats.data_transmissions
                        + node.mac.stats.control_transmissions}
        assert set(sim.stats.data_transmissions) <= transmitters
        assert 2 <= len(transmitters) <= 12
        # A plan is keyed on its sender and the senders it overlapped.
        assert {sender for sender, _ in medium._plans} == transmitters
        assert {node for sender, overlapping in medium._plans
                for node in (sender, *overlapping)} <= transmitters
        assert set(medium._sense_rows) <= transmitters
