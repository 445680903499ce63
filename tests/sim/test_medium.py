"""Tests for the broadcast medium: losses, carrier sense, collisions, capture."""

from __future__ import annotations

import gc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.medium as medium_module
from repro.protocols.more import setup_more_flow
from repro.sim.channels import GilbertElliott
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import WirelessMedium
from repro.sim.radio import (
    CAPTURE_MARGIN,
    CAPTURE_PROBABILITY,
    INTERFERENCE_THRESHOLD,
    NEIGHBOR_SENSE_THRESHOLD,
    SENSE_THRESHOLD,
    SimConfig,
)
from repro.sim.simulator import Simulator
from repro.topology.generator import indoor_testbed, random_geometric
from repro.topology.graph import Topology
from repro.topology.mobility import MarkovLinkChurn


def make_frame(sender, receiver=BROADCAST, flow=1):
    return Frame(sender=sender, receiver=receiver, kind=FrameKind.DATA, flow_id=flow,
                 size_bytes=1500)


def make_medium(matrix, seed=0):
    topo = Topology(np.asarray(matrix, dtype=float))
    return WirelessMedium(topo, np.random.default_rng(seed)), topo


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
        destroy each other (the margin rules capture out)."""
        matrix = [[0, 0.0, 0.6], [0.0, 0, 0.6], [0.6, 0.6, 0]]
        medium, _ = make_medium(matrix, seed=1)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        tx_b = medium.begin(make_frame(1), now=0.001, airtime=0.002)
        received_a = medium.complete(tx_a, now=0.002)
        received_b = medium.complete(tx_b, now=0.003)
        assert received_a == [] and received_b == []
        assert medium.collisions >= 1

    def test_capture_saves_much_stronger_frame(self):
        """With a large delivery margin the stronger frame survives an audible
        interferer as often as the capture coin says; the weaker one never."""
        matrix = [[0, 0.0, 1.0], [0.0, 0, 0.12], [1.0, 0.12, 0]]
        medium, _ = make_medium(matrix, seed=3)
        captured = 0
        trials = 400
        for i in range(trials):
            start = i * 0.01
            tx_a = medium.begin(make_frame(0), now=start, airtime=0.002)
            tx_b = medium.begin(make_frame(1), now=start + 0.0005, airtime=0.002)
            if 2 in medium.complete(tx_a, now=start + 0.002):
                captured += 1
            assert medium.complete(tx_b, now=start + 0.0025) == []
        assert abs(captured / trials - CAPTURE_PROBABILITY) < 0.07
        assert medium.captures == captured

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
        medium, _ = make_medium(matrix)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        assert medium.complete(tx_a, now=0.002) == [2]
        tx_b = medium.begin(make_frame(1), now=0.003, airtime=0.002)
        assert medium.complete(tx_b, now=0.005) == [2]

    @pytest.mark.parametrize("level", [0.04, INTERFERENCE_THRESHOLD])
    def test_weak_interferer_at_or_below_threshold_ignored(self, level):
        matrix = [[0, 0.0, 1.0], [0.0, 0, level], [1.0, level, 0]]
        medium, _ = make_medium(matrix)
        tx_a = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        medium.begin(make_frame(1), now=0.0005, airtime=0.002)
        assert medium.complete(tx_a, now=0.002) == [2]
        assert medium.collisions == 0


class TestThresholdEdges:
    """Which side of each reception constant a delivery at it falls on."""

    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("delivery, sensed", [
        (SENSE_THRESHOLD, False),
        (np.nextafter(SENSE_THRESHOLD, 1.0), True),
    ])
    def test_direct_sense_needs_more_than_the_sense_threshold(self, delivery, sensed,
                                                              direction):
        """One link, either way: both ends sense each other above it."""
        matrix = np.zeros((2, 2))
        matrix[(0, 1) if direction == "out" else (1, 0)] = delivery
        medium, _ = make_medium(matrix)
        assert medium.can_sense(1, 0) is sensed and medium.can_sense(0, 1) is sensed

    @pytest.mark.parametrize("delivery, sensed", [
        (NEIGHBOR_SENSE_THRESHOLD, True),
        (np.nextafter(NEIGHBOR_SENSE_THRESHOLD, 0.0), False),
    ])
    def test_two_hop_sense_needs_the_neighbor_threshold(self, delivery, sensed):
        """Nodes 0 and 2 share node 1 and no link: they sense each other
        when both deliver to it at the threshold or better."""
        matrix = [[0, delivery, 0.0], [0.5, 0, 0.5], [0.0, delivery, 0]]
        medium, _ = make_medium(matrix)
        assert medium.can_sense(2, 0) is sensed and medium.can_sense(0, 2) is sensed

    @pytest.mark.parametrize("below", [False, True])
    def test_capture_needs_the_margin(self, below):
        """A wanted link exactly the margin above the interferer's may be
        captured (one capture coin); one just short of it is corrupted."""
        interference = 0.25
        wanted = interference + CAPTURE_MARGIN
        assert wanted - interference >= CAPTURE_MARGIN
        if below:
            wanted = np.nextafter(wanted, 0.0)
        matrix = [[0, 0.0, wanted], [0.0, 0, interference], [wanted, interference, 0]]
        medium, _ = make_medium(matrix)
        receivers, _, survivable, chains = medium._plans[0, (1,)]
        assert receivers == (2,)
        if below:
            assert (survivable, chains) == ((False,), None)
        else:
            assert (survivable, chains) == (None, ((True,),))

    def test_an_interferer_just_above_the_threshold_corrupts(self):
        level = np.nextafter(INTERFERENCE_THRESHOLD, 1.0)
        matrix = [[0, 0.0, 0.4], [0.0, 0, level], [0.4, level, 0]]
        medium, _ = make_medium(matrix)
        assert medium._plans[0, (1,)][2:] == ((False,), None)


#: Deliveries at and just below the sense rule's two thresholds.
_EDGE_DELIVERIES = (SENSE_THRESHOLD, NEIGHBOR_SENSE_THRESHOLD,
                    np.nextafter(SENSE_THRESHOLD, 0.0),
                    np.nextafter(NEIGHBOR_SENSE_THRESHOLD, 0.0))


def _random_mesh_matrix(node_count: int, density: float, seed: int,
                        edge_share: float) -> np.ndarray:
    """An asymmetric random delivery matrix with about ``density`` links, of
    which about ``edge_share`` deliver at or just below a sense threshold."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((node_count, node_count))
    at_edge = rng.random((node_count, node_count)) < edge_share
    matrix[at_edge] = rng.choice(_EDGE_DELIVERIES, size=int(at_edge.sum()))
    matrix[rng.random((node_count, node_count)) >= density] = 0.0
    return matrix


_edge_shares = st.floats(min_value=0.0, max_value=1.0)


class TestPerSenderTables:
    """The lazily derived per-sender tables vs the dense N×N oracle."""

    @staticmethod
    def _assert_rows_match_oracle(medium: WirelessMedium) -> None:
        oracle = WirelessMedium._build_sense_matrix(medium._links.delivery_matrix())
        for sender in range(medium.topology.node_count):
            assert medium._sense_rows[sender] == tuple(oracle[sender].tolist())
            for listener in range(medium.topology.node_count):
                assert medium.can_sense(listener, sender) == oracle[sender, listener]

    @given(node_count=st.integers(min_value=2, max_value=12),
           density=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=10_000),
           edge_share=_edge_shares)
    @settings(max_examples=60, deadline=None)
    def test_sense_rows_equal_dense_oracle(self, node_count, density, seed,
                                           edge_share):
        topology = Topology(_random_mesh_matrix(node_count, density, seed,
                                                edge_share))
        medium = WirelessMedium(topology, np.random.default_rng(0))
        assert not medium._sense_rows  # nothing derived at build time
        self._assert_rows_match_oracle(medium)

    @given(node_count=st.integers(min_value=3, max_value=10),
           seed=st.integers(min_value=0, max_value=10_000),
           edge_share=_edge_shares)
    @settings(max_examples=30, deadline=None)
    def test_rows_are_rederived_after_an_epoch_advance(self, node_count, seed,
                                                       edge_share):
        topology = Topology(_random_mesh_matrix(node_count, 0.7, seed, edge_share))
        churn = MarkovLinkChurn(seed=seed, epoch_length=1.0, mean_up_time=1.0,
                                mean_down_time=1.0)
        medium = WirelessMedium(topology, np.random.default_rng(0), mobility=churn)
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


class TestLifecycle:
    def test_second_complete_raises_before_it_draws(self):
        """A frame that is not on the air is refused before a word is read:
        the stream position, the counters and the history stay as they were."""
        medium = WirelessMedium(_testbed(), np.random.default_rng(1))
        tx = medium.begin(make_frame(0), now=0.0, airtime=0.002)
        medium.complete(tx, now=0.002)
        counters = {name: getattr(medium, name) for name in
                    ("transmissions", "receptions", "collisions", "captures")}
        state = medium.rng.bit_generator.state
        history = list(medium._history)
        with pytest.raises(ValueError):
            medium.complete(tx, now=0.002)
        assert medium.rng.bit_generator.state == state
        assert {name: getattr(medium, name) for name in counters} == counters
        assert list(medium._history) == history


def _counting(monkeypatch) -> dict[str, int]:
    """Count every call of ``WirelessMedium._plan`` and of the sense rule
    (``_sense_row``, which the medium's tables and ``sense_row`` call)."""
    calls = {"_plan": 0, "sense_row": 0}
    plan, row = WirelessMedium._plan, medium_module._sense_row

    def counted_plan(*args):
        calls["_plan"] += 1
        return plan(*args)

    def counted_row(*args):
        calls["sense_row"] += 1
        return row(*args)

    monkeypatch.setattr(WirelessMedium, "_plan", staticmethod(counted_plan))
    monkeypatch.setattr(medium_module, "_sense_row", counted_row)
    return calls


def _testbed() -> Topology:
    return indoor_testbed(node_count=20, floors=3, seed=7)


def _mesh() -> Topology:
    return random_geometric(node_count=300, area=515.0, seed=5)


def _run_testbed(topology: Topology, seed: int) -> Simulator:
    """Two concurrent MORE flows on the testbed: overlaps, collisions."""
    sim = Simulator(topology, SimConfig(seed=seed))
    for flow_seed, (source, destination) in enumerate(((0, 19), (4, 13))):
        setup_more_flow(sim, topology, source, destination, total_packets=16,
                        batch_size=8, coding_payload_size=16,
                        seed=seed + flow_seed)
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    return sim


def _run_mesh(topology: Topology, seed: int) -> Simulator:
    """One capped MORE flow across the 300-node mesh."""
    sim = Simulator(topology, SimConfig(seed=seed))
    setup_more_flow(sim, topology, 17, 250, total_packets=32, batch_size=32,
                    coding_payload_size=16, max_relays=10, seed=seed)
    sim.run(until=60.0, stop_condition=sim.stats.all_flows_complete)
    return sim


def _outcome(sim: Simulator) -> tuple:
    """What a run must not let sharing change: flows, counters, stream."""
    medium = sim.medium
    return ([asdict(record) for record in sim.stats.flows.values()], sim.now,
            medium.transmissions, medium.receptions, medium.collisions,
            medium.captures, sim.rng.bit_generator.state)


def _shared_tables(topology: Topology):
    """The medium tables ``topology`` keeps, or ``None``."""
    return topology._derived.get(("medium",))


class TestSharedMediumState:
    """Under a static channel the sense rows and reception plans live on the
    topology, and no run can tell whether another ran before it."""

    @pytest.mark.parametrize("build, run", [(_testbed, _run_testbed),
                                            (_mesh, _run_mesh)],
                             ids=["testbed", "mesh_300"])
    def test_runs_equal_runs_over_a_fresh_topology(self, build, run):
        topology = build()
        fresh = {seed: _outcome(run(Topology(topology.delivery_matrix()), seed))
                 for seed in (1, 2)}
        for order in ((1, 2), (2, 1)):
            shared = build()
            for seed in order:
                assert _outcome(run(shared, seed)) == fresh[seed], (order, seed)
            assert _shared_tables(shared)[1]

    def test_a_repeated_run_derives_nothing(self, monkeypatch):
        topology = _testbed()
        calls = _counting(monkeypatch)
        first = _outcome(_run_testbed(topology, 1))
        assert calls["_plan"] > 0 and calls["sense_row"] > 0
        calls.update(_plan=0, sense_row=0)
        assert _outcome(_run_testbed(topology, 1)) == first
        assert calls == {"_plan": 0, "sense_row": 0}

    def test_an_edited_mesh_derives_its_own_tables(self, monkeypatch):
        """A mesh built from an edited matrix shares nothing with the one it
        was edited from, and that one keeps its tables."""
        topology = _testbed()
        original = _outcome(_run_testbed(topology, 1))
        kept = _shared_tables(topology)
        matrix = topology.delivery_matrix()
        matrix[0, 1] = matrix[1, 0] = 0.5 * matrix[0, 1]
        edited = Topology(matrix)
        assert _shared_tables(edited) is None
        calls = _counting(monkeypatch)
        outcome = _outcome(_run_testbed(edited, 1))
        assert calls["_plan"] > 0 and calls["sense_row"] > 0
        assert outcome != original
        assert outcome == _outcome(_run_testbed(Topology(matrix), 1))
        calls.update(_plan=0, sense_row=0)
        assert _outcome(_run_testbed(topology, 1)) == original
        assert calls == {"_plan": 0, "sense_row": 0}
        assert _shared_tables(topology) is kept

    @pytest.mark.parametrize("variant", ["gilbert_elliott", "link_churn"])
    def test_other_media_keep_tables_of_their_own(self, variant):
        """A Gilbert-Elliott or a mobility medium neither reads the shared
        tables nor adds to them, nor creates them."""
        topology = _testbed()

        def other_medium():
            if variant == "gilbert_elliott":
                return WirelessMedium(topology, np.random.default_rng(3),
                                      model=GilbertElliott(seed=3))
            return WirelessMedium(topology, np.random.default_rng(3),
                                  mobility=MarkovLinkChurn(seed=3, epoch_length=1.0))

        def drive(medium):
            for step, sender in enumerate((0, 4, 0, 13, 19)):
                first = medium.begin(make_frame(sender), now=step * 0.01,
                                     airtime=0.002)
                second = medium.begin(make_frame((sender + 1) % 20),
                                      now=step * 0.01 + 0.001, airtime=0.002)
                for listener in range(20):
                    medium.busy_horizon(listener, second.start)
                medium.complete(first, now=first.end)
                medium.complete(second, now=second.end)

        drive(other_medium())
        assert _shared_tables(topology) is None
        drive(WirelessMedium(topology, np.random.default_rng(3)))
        rows, plans = _shared_tables(topology)
        assert rows and plans
        before = (dict(rows), dict(plans))
        medium = other_medium()
        drive(medium)
        assert medium._sense_rows is not rows and medium._plans is not plans
        assert medium._sense_rows
        assert (dict(rows), dict(plans)) == before

    def test_shared_tables_are_tuples(self):
        """No run can edit a row or a plan another run reads."""
        topology = _testbed()
        _run_testbed(topology, 1)
        rows, plans = _shared_tables(topology)
        assert all(type(row) is tuple for row in rows.values())
        for plan in plans.values():
            assert type(plan) is tuple
            receivers, thresholds, survivable, chains = plan
            assert type(receivers) is tuple and type(thresholds) is tuple
            assert survivable is None or type(survivable) is tuple
            assert chains is None or (type(chains) is tuple and all(
                type(chain) is tuple for chain in chains))

    def test_a_finished_simulator_is_collected(self):
        topology = _testbed()
        sim = _run_testbed(topology, 1)
        assert sim.stats.all_flows_complete()
        simulator, medium = weakref.ref(sim), weakref.ref(sim.medium)
        del sim
        gc.collect()
        assert simulator() is None and medium() is None
        assert _shared_tables(topology)[1]

    def test_the_shared_memo_holds_transmitters_only(self):
        """As ``test_only_transmitters_get_tables``, after a second run at
        another seed on the same mesh: the shared memo holds the tables of
        the nodes that put a frame on the air in either run."""
        topology = _mesh()
        transmitters: set[int] = set()
        for seed in (3, 4):
            sim = _run_mesh(topology, seed)
            assert sim.stats.all_flows_complete()
            transmitters |= {node.node_id for node in sim.nodes
                             if node.mac.stats.data_transmissions
                             + node.mac.stats.control_transmissions}
        medium = sim.medium
        assert 2 <= len(transmitters) <= 16
        assert (medium._sense_rows, medium._plans) == _shared_tables(topology)
        assert {sender for sender, _ in medium._plans} == transmitters
        assert {node for sender, overlapping in medium._plans
                for node in (sender, *overlapping)} <= transmitters
        assert set(medium._sense_rows) <= transmitters
