"""Tests for the ExOR implementation (strict schedule + batch maps)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.exor import ExorAgent, setup_exor_flow
from repro.protocols.exor.agent import (
    COMPLETION_THRESHOLD,
    INERT_RANK,
    TURN_GUARD_TIME,
    ExorDataPayload,
    ExorFlowSpec,
    ExorPlan,
    ExorScheduler,
    _ExorFlowState,
)
from repro.sim.events import EventQueue
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain, diamond, two_hop_relay


def run_exor(topology, source, destination, seed=1, until=90.0, **kwargs):
    sim = Simulator(topology, SimConfig(seed=seed))
    handle = setup_exor_flow(sim, topology, source, destination, **kwargs)
    sim.run(until=until, stop_condition=sim.stats.all_flows_complete)
    return sim, handle


class TestTransfer:
    def test_single_hop(self):
        topo = chain(1, link_delivery=0.8)
        sim, handle = run_exor(topo, 0, 1, total_packets=16, batch_size=8, packet_size=400)
        assert sim.stats.flows[handle.flow_id].completed

    def test_lossy_chain(self):
        topo = chain(3, link_delivery=0.7, skip_delivery=0.2)
        sim, handle = run_exor(topo, 0, 3, total_packets=24, batch_size=8, packet_size=400)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        assert record.delivered_packets == 24

    def test_relay_topology(self):
        topo = two_hop_relay()
        sim, handle = run_exor(topo, 0, 2, total_packets=32, batch_size=16, packet_size=400)
        assert sim.stats.flows[handle.flow_id].completed

    def test_diamond(self):
        topo = diamond(0.5, 0.6, relay_count=3)
        destination = topo.node_count - 1
        sim, handle = run_exor(topo, 0, destination, total_packets=16, batch_size=8,
                               packet_size=400)
        assert sim.stats.flows[handle.flow_id].completed

    def test_multi_batch(self):
        topo = chain(2, link_delivery=0.8)
        sim, handle = run_exor(topo, 0, 2, total_packets=24, batch_size=8, packet_size=400)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        # Let the final batch ACK drain back to the source.
        sim.run(until=sim.now + 2.0)
        source_agent = sim.nodes[0].agent
        assert source_agent.source_progress[handle.flow_id] == handle.spec.batch_count


class TestStrictSchedule:
    def test_one_transmitter_at_a_time(self):
        """ExOR's defining property: the flow's forwarders never transmit
        concurrently, so the medium never sees two overlapping data frames of
        the flow (this is what forfeits spatial reuse)."""
        topo = chain(4, link_delivery=0.7, skip_delivery=0.15)
        sim = Simulator(topo, SimConfig(seed=2))
        handle = setup_exor_flow(sim, topo, 0, 4, total_packets=16, batch_size=8,
                                 packet_size=400)
        intervals = []
        original_begin = sim.medium.begin

        def tracking_begin(frame, now, airtime):
            if isinstance(frame.payload, ExorDataPayload):
                intervals.append((now, now + airtime))
            return original_begin(frame, now, airtime)

        sim.medium.begin = tracking_begin
        sim.run(until=90.0, stop_condition=sim.stats.all_flows_complete)
        intervals.sort()
        for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
            assert start_b >= end_a - 1e-12

    def test_scheduler_rotates_turns(self):
        topo = chain(2, link_delivery=0.8)
        sim = Simulator(topo, SimConfig(seed=3))
        handle = setup_exor_flow(sim, topo, 0, 2, total_packets=8, batch_size=8,
                                 packet_size=400)
        scheduler = handle.scheduler
        holders = []
        grant = scheduler._grant

        def recording_grant(position):
            grant(position)
            holders.append(scheduler.holder)

        scheduler._grant = recording_grant
        sim.run(until=90.0, stop_condition=sim.stats.all_flows_complete)
        # The turn leaves the source: at least two participants held it.
        assert len(set(holders)) >= 2
        assert set(holders) <= set(handle.spec.plan.participants)
        assert not scheduler.active  # stopped once the batch completed

    def test_batch_map_merging(self):
        """Receivers merge heard batch maps element-wise (minimum rank)."""
        topo = chain(2, link_delivery=1.0)
        sim = Simulator(topo, SimConfig(seed=1))
        handle = setup_exor_flow(sim, topo, 0, 2, total_packets=8, batch_size=8,
                                 packet_size=400)
        agent = sim.nodes[1].agent
        assert isinstance(agent, ExorAgent)
        state = agent.flows[handle.flow_id]
        incoming = np.full(8, 0, dtype=np.int32)  # destination claims everything
        state.merge_map(incoming)
        assert (state.batch_map == 0).all()

    def test_forwarder_responsibility_excludes_higher_priority_holders(self):
        topo = chain(2, link_delivery=1.0)
        sim = Simulator(topo, SimConfig(seed=1))
        handle = setup_exor_flow(sim, topo, 0, 2, total_packets=8, batch_size=8,
                                 packet_size=400)
        agent = sim.nodes[1].agent
        state = agent.flows[handle.flow_id]
        state.note_reception(0, 0)
        state.note_reception(1, 0)
        # Another (higher-priority) node claims packet 1.
        claim = state.batch_map.copy()
        claim[1] = 0
        state.merge_map(claim)
        assert state.responsibility() == [0]


class _SchedulerSim:
    """The slice of a simulator ``ExorScheduler`` touches: a queue, nodes
    without ExOR agents (every turn has traffic) and a trigger log."""

    def __init__(self, node_count: int) -> None:
        self.events = EventQueue()
        self.nodes = {node: SimpleNamespace(agent=None) for node in range(node_count)}
        self.triggered: list[int] = []

    def trigger_node(self, node: int) -> None:
        self.triggered.append(node)


class TestDeferredTurnGrant:
    """A turn passes after the guard time unless its batch moved on: a stale
    grant is dropped by its epoch check when it fires, never cancelled."""

    @staticmethod
    def _scheduler():
        sim = _SchedulerSim(3)
        # Priority order: destination 2, forwarder 1, source 0.
        spec = SimpleNamespace(plan=ExorPlan(participants=[2, 1, 0]), flow_id=0)
        return sim, ExorScheduler(spec, sim)

    def test_turn_passes_after_the_guard_time(self):
        sim, scheduler = self._scheduler()
        scheduler.start_batch(0)
        scheduler.finish_turn(0)
        assert scheduler.holder == 0  # the forwarder waits out the guard
        sim.events.run()
        assert sim.events.now == TURN_GUARD_TIME
        assert scheduler.holder == 1
        assert sim.triggered == [0, 1]

    def test_grant_from_a_finished_batch_is_dropped(self):
        sim, scheduler = self._scheduler()
        scheduler.start_batch(0)
        scheduler.finish_turn(0)
        scheduler.start_batch(1)  # the source holds the new batch's first turn
        sim.events.run()
        assert scheduler.holder == 0
        assert sim.triggered == [0, 0]

    def test_grant_after_stop_is_dropped(self):
        sim, scheduler = self._scheduler()
        scheduler.start_batch(0)
        scheduler.finish_turn(0)
        scheduler.stop()
        sim.events.run()
        assert scheduler.holder is None and not scheduler.active
        assert sim.triggered == [0]


def _responsibility_by_scan(state) -> list[int]:
    """``_ExorFlowState.responsibility`` as it was before the batch map was
    compared in one vector operation (verbatim): the reference."""
    packets = state.packets_received(state.batch_id)
    if not packets:
        return []
    count = state.spec.batch_packet_count(state.batch_id)
    batch_map = state.batch_map
    rank = state.rank
    return sorted(
        idx for idx in packets
        if idx < count and batch_map[idx] == rank
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_responsibility_equals_the_per_packet_scan(data):
    """Random maps, ranks (``INERT_RANK`` included), held sets and a short
    last batch: the same list, and ``has_responsibility`` says whether it
    is empty."""
    batch_size = data.draw(st.integers(1, 12), label="batch_size")
    participants = list(range(data.draw(st.integers(2, 6), label="participants")))
    batch_count = data.draw(st.integers(1, 3), label="batch_count")
    short = data.draw(st.integers(0, batch_size - 1), label="short")
    spec = ExorFlowSpec(flow_id=1, source=participants[-1], destination=0,
                        batch_size=batch_size, packet_size=400,
                        total_packets=batch_size * batch_count - short,
                        batch_count=batch_count, plan=ExorPlan(participants=participants))
    rank = data.draw(st.sampled_from([*participants, INERT_RANK]), label="rank")
    state = _ExorFlowState(spec, rank)
    state.reset_for_batch(data.draw(st.integers(0, batch_count - 1), label="batch_id"))
    state.batch_map[:] = data.draw(
        st.lists(st.sampled_from([*participants, rank]), min_size=batch_size,
                 max_size=batch_size), label="batch_map")
    state.packets_received(state.batch_id).update(
        data.draw(st.sets(st.integers(0, batch_size - 1)), label="held"))

    expected = _responsibility_by_scan(state)
    assert state.responsibility() == expected
    assert all(type(index) is int for index in state.responsibility())
    assert state.has_responsibility() == bool(expected)


class TestCompletionThreshold:
    def test_cleanup_phase_delivers_the_tail(self):
        """Past the completion threshold the destination stops the schedule
        and requests the tail over traditional routing; the batch still
        completes."""
        assert COMPLETION_THRESHOLD * 16 < 15  # the threshold leaves a tail
        topo = chain(2, link_delivery=0.7)
        sim, handle = run_exor(topo, 0, 2, total_packets=16, batch_size=16,
                               packet_size=400)
        record = sim.stats.flows[handle.flow_id]
        assert record.completed
        destination_agent = sim.nodes[2].agent
        assert destination_agent.cleanup_requested[handle.flow_id] == {0}
