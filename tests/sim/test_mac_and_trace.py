"""Tests for the CSMA/CA MAC, the node glue and the statistics collector."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.protocols.base import ProtocolAgent
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.mac import MacState
from repro.sim.radio import (
    ACK_TURNAROUND,
    CONTENTION_WINDOWS,
    DIFS,
    RATE_1MBPS,
    RATE_11MBPS,
    RETRY_LIMIT,
    SLOT_TIME,
    SUPPORTED_RATES,
    SimConfig,
    frame_airtime,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import FlowRecord, StatsCollector
from repro.topology.graph import Topology


class ScriptedAgent(ProtocolAgent):
    """Test agent that transmits a fixed list of frames and records receptions."""

    def __init__(self, node_id, frames=None):
        super().__init__(node_id)
        self.outgoing = list(frames or [])
        self.received = []
        self.sent = []

    def has_pending(self, now):
        return bool(self.outgoing)

    def on_transmit_opportunity(self, now):
        return self.outgoing.pop(0) if self.outgoing else None

    def on_frame_received(self, frame, now):
        self.received.append((frame, now))

    def on_frame_sent(self, frame, success, now):
        self.sent.append((frame, success))


def two_node_sim(delivery=1.0, seed=0):
    matrix = np.array([[0, delivery], [delivery, 0]], dtype=float)
    return Simulator(Topology(matrix), SimConfig(seed=seed))


def data_frame(sender, receiver=BROADCAST, size=500):
    return Frame(sender=sender, receiver=receiver, kind=FrameKind.DATA, flow_id=1,
                 size_bytes=size)


class TestMacBroadcast:
    def test_broadcast_delivery_and_callbacks(self):
        sim = two_node_sim()
        sender = ScriptedAgent(0, [data_frame(0)])
        receiver = ScriptedAgent(1)
        sim.attach_agent(0, sender)
        sim.attach_agent(1, receiver)
        sim.trigger_node(0)
        sim.run(until=1.0)
        assert len(receiver.received) == 1
        assert len(sender.sent) == 1
        assert sender.sent[0][1] is True  # broadcast is always "successful"
        assert sender.sent[0][0].mac_attempts == 1

    def test_broadcast_not_retried_on_loss(self):
        sim = two_node_sim(delivery=0.0)
        sender = ScriptedAgent(0, [data_frame(0)])
        receiver = ScriptedAgent(1)
        sim.attach_agent(0, sender)
        sim.attach_agent(1, receiver)
        sim.trigger_node(0)
        sim.run(until=1.0)
        assert receiver.received == []
        assert sim.medium.transmissions == 1

    def test_multiple_frames_sent_back_to_back(self):
        sim = two_node_sim()
        sender = ScriptedAgent(0, [data_frame(0) for _ in range(5)])
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=1.0)
        assert len(sender.sent) == 5
        assert sim.nodes[0].mac.state is MacState.IDLE


class TestMacUnicast:
    def test_unicast_success(self):
        sim = two_node_sim()
        sender = ScriptedAgent(0, [data_frame(0, receiver=1)])
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=1.0)
        assert sender.sent[0][1] is True
        assert sim.nodes[0].mac.stats.unicast_successes == 1

    def test_unicast_retries_then_gives_up(self):
        sim = two_node_sim(delivery=0.0)
        sender = ScriptedAgent(0, [data_frame(0, receiver=1)])
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=5.0)
        assert sender.sent[0][1] is False
        assert sim.medium.transmissions == RETRY_LIMIT + 1
        assert sim.nodes[0].mac.stats.unicast_drops == 1
        assert sender.sent[0][0].mac_attempts == RETRY_LIMIT + 1

    def test_unicast_lossy_link_eventually_succeeds(self):
        sim = two_node_sim(delivery=0.5, seed=3)
        sender = ScriptedAgent(0, [data_frame(0, receiver=1)])
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=5.0)
        assert sender.sent and sender.sent[0][1] is True
        assert sim.medium.transmissions >= 1


class RateAgent(ScriptedAgent):
    """A scripted agent that sends every frame at ``rate``."""

    def __init__(self, node_id, frames, rate):
        super().__init__(node_id, frames)
        self.rate = rate

    def select_bitrate(self, frame):
        return self.rate


def _on_air(sim, monkeypatch) -> list[tuple[float, float]]:
    """Record ``(start, airtime)`` of every frame the medium is handed."""
    frames = []
    begin = sim.medium.begin

    def recording_begin(frame, now, airtime):
        frames.append((now, airtime))
        return begin(frame, now, airtime)

    monkeypatch.setattr(sim.medium, "begin", recording_begin)
    return frames


class TestFrameTiming:
    @pytest.mark.parametrize("rate", SUPPORTED_RATES)
    def test_a_frame_holds_the_air_for_its_airtime_at_the_run_rate(self, rate,
                                                                   monkeypatch):
        sim = Simulator(Topology(np.array([[0, 1.0], [1.0, 0]])),
                        SimConfig(bitrate=rate, seed=0))
        on_air = _on_air(sim, monkeypatch)
        sim.attach_agent(0, ScriptedAgent(0, [data_frame(0, size=1500)]))
        sim.trigger_node(0)
        sim.run(until=1.0)
        ((_, airtime),) = on_air
        assert airtime == frame_airtime(1500, rate)
        assert sim.nodes[0].mac.stats.busy_time == airtime

    def test_an_agent_rate_overrides_the_run_rate(self, monkeypatch):
        sim = Simulator(Topology(np.array([[0, 1.0], [1.0, 0]])),
                        SimConfig(bitrate=RATE_11MBPS, seed=0))
        on_air = _on_air(sim, monkeypatch)
        sim.attach_agent(0, RateAgent(0, [data_frame(0), data_frame(0)], RATE_1MBPS))
        sim.attach_agent(1, ScriptedAgent(1, [data_frame(1)]))
        sim.trigger_node(0)
        sim.trigger_node(1)
        sim.run(until=1.0)
        assert sorted(airtime for _, airtime in on_air) == [frame_airtime(500, RATE_11MBPS)] + [
            frame_airtime(500, RATE_1MBPS)] * 2

    def test_a_unicast_success_holds_the_mac_for_the_ack_turnaround(self, monkeypatch):
        sim = two_node_sim()
        on_air = _on_air(sim, monkeypatch)
        done = []
        sender = ScriptedAgent(0, [data_frame(0, receiver=1)])
        sender.on_frame_sent = lambda frame, success, now: done.append((success, now))
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=1.0)
        ((start, airtime),) = on_air
        assert airtime == frame_airtime(500, sim.config.bitrate)
        assert done == [(True, pytest.approx(start + airtime + ACK_TURNAROUND, abs=1e-12))]

    def test_per_node_objects_are_slotted_and_share_one_airtime_table(self):
        """A simulator builds a node, a MAC and its counters per node id: none
        carries an instance dict, and the MACs read the simulator's one
        airtime table, which both senders' frames filled."""
        sim = two_node_sim()
        for node in (0, 1):
            sim.attach_agent(node, ScriptedAgent(node, [data_frame(node, size=300 + node)]))
            sim.trigger_node(node)
        sim.run(until=1.0)
        for node in sim.nodes:
            assert not any(hasattr(part, "__dict__")
                           for part in (node, node.mac, node.mac.stats))
            assert node.mac._airtimes is sim.airtimes
        assert sorted(sim.airtimes) == [(300, sim.config.bitrate), (301, sim.config.bitrate)]


class TestContentionWindows:
    """A unicast frame on a dead link contends at every attempt
    ``0 .. RETRY_LIMIT``, each over its window in ``CONTENTION_WINDOWS``."""

    def test_backoff_draws_follow_contention_window(self, monkeypatch):
        matrix = np.array([[0, 0.0], [0.0, 0]])
        sim = Simulator(Topology(matrix), SimConfig(seed=0))
        sender = ScriptedAgent(0, [data_frame(0, receiver=1)])
        sim.attach_agent(0, sender)
        # Every attempt goes on the air through the medium: record when.
        on_air = _on_air(sim, monkeypatch)
        sim.trigger_node(0)
        sim.run(until=5.0)
        # A dead link draws no reception words, so the main generator serves
        # the backoffs alone: each attempt waits DIFS plus a draw from its
        # window, as ``integers`` gives it on a twin generator.
        assert sender.sent[0][1] is False
        starts = [start for start, _ in on_air]
        assert len(starts) == RETRY_LIMIT + 1
        twin = np.random.default_rng(0)
        airtime = frame_airtime(data_frame(0).size_bytes, sim.config.bitrate)
        contention_began = [0.0] + [start + airtime + ACK_TURNAROUND
                                    for start in starts[:-1]]
        delays = [start - began for start, began in zip(starts, contention_began)]
        assert delays == pytest.approx(
            [DIFS + int(twin.integers(0, window + 1)) * SLOT_TIME
             for window in CONTENTION_WINDOWS])
        assert sim.rng.bit_generator.state == twin.bit_generator.state


class TestCarrierSenseSerialization:
    def test_two_contending_senders_do_not_collide(self):
        """Nodes that can hear each other serialise via carrier sense."""
        matrix = np.array([[0, 0.9, 0.9], [0.9, 0, 0.9], [0.9, 0.9, 0]], dtype=float)
        sim = Simulator(Topology(matrix), SimConfig(seed=1))
        a = ScriptedAgent(0, [data_frame(0) for _ in range(10)])
        b = ScriptedAgent(1, [data_frame(1) for _ in range(10)])
        sim.attach_agent(0, a)
        sim.attach_agent(1, b)
        sim.attach_agent(2, ScriptedAgent(2))
        sim.trigger_node(0)
        sim.trigger_node(1)
        sim.run(until=2.0)
        assert sim.medium.collisions == 0
        assert len(a.sent) == 10 and len(b.sent) == 10


class TestContentionWithoutHandles:
    """A MAC gone idle leaves no event behind it — whether its frames were
    broadcast, acknowledged or dropped after the last retry."""

    @pytest.mark.parametrize("delivery, receiver, frames, success", [
        (1.0, BROADCAST, 3, True),   # back-to-back broadcasts
        (0.5, 1, 3, True),           # unicast with retries (seed 3)
        (0.0, 1, 1, False),          # unicast dropped after the retry limit
    ], ids=["broadcast", "unicast_retries", "unicast_drop"])
    def test_idle_mac_leaves_no_event(self, delivery, receiver, frames, success):
        sim = two_node_sim(delivery=delivery, seed=3)
        sender = ScriptedAgent(0, [data_frame(0, receiver=receiver)
                                   for _ in range(frames)])
        sim.attach_agent(0, sender)
        sim.attach_agent(1, ScriptedAgent(1))
        sim.trigger_node(0)
        sim.run(until=5.0)
        assert [ok for _, ok in sender.sent] == [success] * frames
        assert sim.nodes[0].mac.state is MacState.IDLE
        assert sim.events.empty


def _scan(stats: StatsCollector) -> bool:
    """``all_flows_complete`` evaluated the slow way: a scan over every flow."""
    return bool(stats.flows) and all(f.finished for f in stats.flows.values())


class TestStatsCollector:
    def test_holds_flows_and_transmission_counts_only(self):
        """No mutation counter: the stop condition reads the flows."""
        names = {f.name for f in dataclasses.fields(StatsCollector)}
        assert names == {"flows", "data_transmissions", "_incomplete"}
        assert not hasattr(StatsCollector(), "version")

    def test_flow_lifecycle(self):
        stats = StatsCollector()
        record = stats.register_flow(1, 0, 5, total_packets=10, packet_size=1500,
                                     start_time=1.0)
        assert not record.completed
        stats.record_delivery(1, 6, now=2.0)
        assert not record.completed
        stats.record_delivery(1, 4, now=3.0, batch_complete=True)
        assert record.completed
        assert record.duration == pytest.approx(2.0)
        assert record.throughput_pkts() == pytest.approx(5.0)
        assert record.delivered_batches == 1

    def test_partial_throughput_requires_now(self):
        record = FlowRecord(flow_id=1, source=0, destination=1, total_packets=10,
                            packet_size=100, start_time=0.0)
        with pytest.raises(ValueError):
            record.throughput_pkts()
        record.delivered_packets = 5
        assert record.throughput_pkts(now=2.5) == pytest.approx(2.0)

    def test_all_flows_complete(self):
        stats = StatsCollector()
        assert not stats.all_flows_complete()  # no flows registered
        stats.register_flow(1, 0, 1, total_packets=2, packet_size=10, start_time=0.0)
        stats.register_flow(2, 1, 0, total_packets=1, packet_size=10, start_time=0.0)
        stats.record_delivery(1, 2, now=1.0)
        assert not stats.all_flows_complete()
        stats.record_delivery(2, 1, now=1.0)
        assert stats.all_flows_complete()

    def test_counter_and_scan_agree(self):
        """The O(1) counter and the per-flow scan it replaced are interchangeable."""
        stats = StatsCollector()
        assert stats.all_flows_complete() == _scan(stats)
        stats.register_flow(1, 0, 1, total_packets=2, packet_size=10, start_time=0.0)
        assert stats.all_flows_complete() == _scan(stats) is False
        stats.record_delivery(1, 2, now=1.0)
        assert stats.all_flows_complete() == _scan(stats) is True

    def test_zero_packet_flow_does_not_break_completion_counter(self):
        """A flow complete at registration must not drive the counter negative."""
        stats = StatsCollector()
        stats.register_flow(1, 0, 1, total_packets=0, packet_size=10, start_time=0.0)
        assert stats.all_flows_complete()
        stats.record_delivery(1, 1, now=1.0)  # spurious delivery on a done flow
        stats.register_flow(2, 1, 0, total_packets=1, packet_size=10, start_time=0.0)
        assert not stats.all_flows_complete()  # counter must still see flow 2
        assert stats.all_flows_complete() == _scan(stats)
        stats.record_delivery(2, 1, now=2.0)
        assert stats.all_flows_complete()

    def test_reregistration_does_not_break_completion_counter(self):
        """Re-registering a flow id replaces the record, not the bookkeeping."""
        stats = StatsCollector()
        stats.register_flow(1, 0, 1, total_packets=5, packet_size=10, start_time=0.0)
        stats.register_flow(1, 0, 1, total_packets=2, packet_size=10, start_time=0.5)
        stats.record_delivery(1, 2, now=1.0)
        assert stats.all_flows_complete()
        assert stats.all_flows_complete() == _scan(stats)

    def test_duplicates_and_transmissions(self):
        stats = StatsCollector()
        stats.register_flow(1, 0, 1, total_packets=1, packet_size=10, start_time=0.0)
        stats.record_duplicate(1)
        stats.record_data_transmission(0)
        stats.record_data_transmission(0)
        assert stats.flows[1].duplicate_packets == 1
        assert stats.total_data_transmissions() == 2
