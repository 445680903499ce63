"""Unit tests for the fault models and the runtime injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.base import ProtocolAgent
from repro.sim.faults import (
    FAULT_KINDS,
    CrashRecover,
    FaultSpec,
    ScheduledOutages,
    build_fault_model,
)
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.graph import Topology


class TestFaultSpec:
    def test_default_is_none(self):
        spec = FaultSpec()
        assert spec.kind == "none" and not spec.params

    def test_round_trip(self):
        spec = FaultSpec("crash_recover", {"mean_uptime": 4.0})
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            FaultSpec.from_dict({"params": {}})


class TestBuildFaultModel:
    def test_none_builds_nothing(self):
        assert build_fault_model(None) is None
        assert build_fault_model(FaultSpec("none"), seed=3) is None

    def test_none_rejects_parameters(self):
        with pytest.raises(ValueError, match="no parameters"):
            build_fault_model(FaultSpec("none", {"x": 1}))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            build_fault_model(FaultSpec("meteor_strike"))

    def test_bad_parameter_is_a_value_error(self):
        with pytest.raises(ValueError, match="bad parameter for faults"):
            build_fault_model(FaultSpec("crash_recover", {"bogus": 1}))

    def test_cell_seed_threads_through(self):
        model = build_fault_model(FaultSpec("crash_recover"), seed=9)
        assert model.seed == 9

    def test_explicit_seed_wins(self):
        model = build_fault_model(
            FaultSpec("crash_recover", {"seed": 4}), seed=9)
        assert model.seed == 4

    def test_every_kind_is_registered(self):
        assert FAULT_KINDS == ("none", "crash_recover", "scheduled")


class TestScheduledOutages:
    def test_initial_down_and_transitions(self):
        model = ScheduledOutages({1: [[0.0, 2.0], [5.0, 6.0]]})
        assert model.initial_down(1) and not model.initial_down(0)
        assert model.next_transition(1, 0.0) == (2.0, False)
        assert model.next_transition(1, 2.0) == (5.0, True)
        assert model.next_transition(1, 5.0) == (6.0, False)
        assert model.next_transition(1, 6.0) is None
        assert model.next_transition(0, 0.0) is None

    def test_string_node_keys_from_json(self):
        model = ScheduledOutages({"2": [[1.0, 3.0]]})
        assert model.next_transition(2, 0.0) == (1.0, True)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            ScheduledOutages({0: [[2.0, 2.0]]})

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError, match="overlap"):
            ScheduledOutages({0: [[0.0, 3.0], [2.0, 4.0]]})


class TestCrashRecover:
    def test_chain_is_deterministic_and_alternates(self):
        first = CrashRecover(mean_uptime=2.0, mean_downtime=0.5, seed=7)
        second = CrashRecover(mean_uptime=2.0, mean_downtime=0.5, seed=7)
        clock, down = 0.0, False
        for _ in range(40):
            transition = first.next_transition(3, clock)
            assert transition == second.next_transition(3, clock)
            time, next_down = transition
            assert time > clock
            assert next_down is (not down)
            clock, down = time, next_down

    def test_query_order_does_not_matter(self):
        eager = CrashRecover(seed=5)
        lazy = CrashRecover(seed=5)
        late = eager.next_transition(0, 500.0)  # forces many chain blocks
        assert eager.next_transition(0, 0.0) == lazy.next_transition(0, 0.0)
        assert late == lazy.next_transition(0, 500.0)

    def test_nodes_differ_and_seeds_differ(self):
        model = CrashRecover(seed=1)
        assert model.next_transition(0, 0.0) != model.next_transition(1, 0.0)
        other = CrashRecover(seed=2)
        assert model.next_transition(0, 0.0) != other.next_transition(0, 0.0)

    def test_protect_exempts_nodes_from_the_process(self):
        model = CrashRecover(protect=[0, 2], seed=1)
        assert model.next_transition(0, 0.0) is None  # protected
        assert model.next_transition(2, 0.0) is None
        assert model.next_transition(1, 0.0) is not None

    def test_rejects_nonpositive_means(self):
        with pytest.raises(ValueError, match="positive"):
            CrashRecover(mean_uptime=0.0)


# --------------------------------------------------------------------------- #
# The injector on a live simulator
# --------------------------------------------------------------------------- #


class ChattyAgent(ProtocolAgent):
    """Broadcasts forever; records what it hears."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []
        self.sent = 0

    def has_pending(self, now):
        return True

    def on_transmit_opportunity(self, now):
        self.sent += 1
        return Frame(sender=self.node_id, receiver=BROADCAST,
                     kind=FrameKind.DATA, flow_id=1, size_bytes=200)

    def on_frame_received(self, frame, now):
        self.received.append((frame.sender, now))


def chatty_sim(faults, node_count=2):
    delivery = np.ones((node_count, node_count)) - np.eye(node_count)
    sim = Simulator(Topology(delivery), SimConfig(seed=0, faults=faults))
    agents = []
    for node in range(node_count):
        agent = ChattyAgent(node)
        sim.attach_agent(node, agent)
        agents.append(agent)
    return sim, agents


class TestFaultInjector:
    def test_fault_free_config_builds_no_injector(self):
        sim, _ = chatty_sim(None)
        assert sim.faults is None

    def test_dead_node_neither_transmits_nor_receives(self):
        sim, (alice, bob) = chatty_sim(
            FaultSpec("scheduled", {"downs": {1: [[0.0, 10.0]]}}))
        sim.trigger_node(0)
        sim.trigger_node(1)
        sim.run(until=0.5)
        assert sim.faults.down(1) and not sim.faults.down(0)
        assert bob.sent == 0          # crashed at t=0: never contended
        assert bob.received == []     # and heard nothing while down
        assert alice.sent > 0

    def test_recovery_restarts_the_mac(self):
        sim, (alice, bob) = chatty_sim(
            FaultSpec("scheduled", {"downs": {1: [[0.0, 0.2]]}}))
        sim.trigger_node(0)
        sim.trigger_node(1)
        sim.run(until=0.5)
        assert not sim.faults.down(1)
        assert sim.faults.crashes == 0        # down from t=0, no crash event
        assert sim.faults.recoveries == 1
        assert bob.sent > 0
        assert all(now >= 0.2 for _, now in bob.received)

    def test_mid_run_crash_counts_and_down_nodes(self):
        sim, (alice, bob) = chatty_sim(
            FaultSpec("scheduled", {"downs": {0: [[0.1, 0.3]]}}))
        sim.trigger_node(0)
        sim.run(until=0.2)
        assert sim.faults.crashes == 1
        assert sim.faults.down_nodes() == frozenset({0})
        sim.run(until=0.5)
        assert sim.faults.recoveries == 1
        assert sim.faults.down_nodes() == frozenset()

    @pytest.mark.parametrize("kind", list(FrameKind), ids=lambda kind: kind.value)
    def test_only_down_radios_filter_a_frame_of_any_kind(self, kind):
        """No frame kind is dropped on its own: a live sender reaches every
        live receiver, and a down sender reaches no one."""
        sim, _ = chatty_sim(FaultSpec("scheduled", {"downs": {2: [[0.0, 10.0]]}}),
                            node_count=3)
        frame = Frame(sender=0, receiver=BROADCAST, kind=kind, flow_id=1, size_bytes=60)
        assert sim.faults.filter_receivers(frame, [1, 2]) == [1]
        dead = Frame(sender=2, receiver=BROADCAST, kind=kind, flow_id=1, size_bytes=60)
        assert sim.faults.filter_receivers(dead, [0, 1]) == []
