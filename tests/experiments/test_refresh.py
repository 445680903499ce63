"""Online link-state refresh: mid-flow control-plane rebuilds per protocol.

Covers the refresh loop itself (scheduling, the inf no-op, disconnected
control views) and each protocol's re-plan (``handle.replan``): MORE
forwarder recruitment with the new plan's upstream sets, ExOR participant
re-ranking without losing transfer progress, Srcr re-routing with detours
for stranded relays, a failed re-plan that leaves the installed plan and
every agent's state as they were — and that a re-plan is computed the way
the flow was set up, whatever configuration the refresh loop holds.  The
progress watchdog's safety checks (credit floor, queue bound) each end a
flow with the broken invariant named in its abort reason.
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.refresh import FlowSupervisor, LinkStateRefresher
from repro.experiments.runner import (
    Environment,
    RunConfig,
    run_single_flow,
    start_flows,
)
from repro.metrics.credits import forwarding_plan
from repro.protocols.exor.agent import ExorAgent, setup_exor_flow
from repro.protocols.more.agent import MoreAgent
from repro.protocols.more.flow import setup_more_flow
from repro.protocols.srcr.agent import SrcrAgent, setup_srcr_flow
from repro.sim.faults import FaultSpec
from repro.sim.radio import SimConfig
from repro.sim.simulator import Simulator
from repro.topology.generator import chain, diamond, indoor_testbed, random_geometric
from repro.topology.graph import Topology
from repro.topology.mobility import MobilitySpec


def _diamond_views():
    """A 2-relay diamond plus a control view in which relay 2 is invisible."""
    full = diamond(source_to_relays=0.7, relays_to_destination=0.7,
                   relay_count=2, direct=0.1)
    weak = full.delivery_matrix()
    for a, b in ((0, 2), (2, 0), (2, 3), (3, 2)):
        weak[a, b] = 0.0
    return full, Topology(weak)


def _flow_states(sim, flow_id):
    """What every node holds for ``flow_id``, by node, as comparable values:
    its agent (by identity), whether it knows the flow, and its per-flow
    forwarding state."""
    states = {}
    for node in sim.nodes:
        agent = node.agent
        if isinstance(agent, MoreAgent):
            state = agent.forward_flows.get(flow_id)
            held = None if state is None else (
                state.credit, state.current_batch, state.encoder)
        elif isinstance(agent, ExorAgent):
            state = agent.flows.get(flow_id)
            held = None if state is None else (
                state.rank, state.batch_id, state.batch_map.tolist())
        else:
            continue
        states[node.node_id] = (agent, flow_id in agent.specs, held)
    return states


class TestRefresherLoop:
    def test_infinite_period_schedules_nothing(self):
        topology = chain(3, link_delivery=0.8)
        sim = Simulator(topology, SimConfig(seed=1))
        handle = setup_more_flow(sim, topology, 0, 3, total_packets=8,
                                 batch_size=4, coding_payload_size=4)
        before = sim.events.processed
        refresher = LinkStateRefresher(sim, [handle], RunConfig(seed=1))
        assert not refresher.enabled
        refresher.install()
        sim.run(until=0.5)
        assert refresher.refreshes == 0
        assert sim.events.processed > before  # the flow itself did run

    def test_periodic_refreshes_fire_and_flow_completes(self):
        topology = chain(3, link_delivery=0.8, skip_delivery=0.2)
        sim = Simulator(topology, SimConfig(seed=1))
        config = RunConfig(seed=1, refresh_period=0.05, total_packets=16,
                           batch_size=8)
        handle = setup_more_flow(sim, topology, 0, 3, total_packets=16,
                                 batch_size=8, coding_payload_size=4,
                                 control_topology=config.control_view(topology))
        refresher = LinkStateRefresher(sim, [handle], config).install()
        sim.run(until=2.0, stop_condition=sim.stats.all_flows_complete)
        assert sim.stats.flows[handle.flow_id].completed
        assert refresher.refreshes >= 2

    def test_disconnected_control_view_keeps_stale_plan(self):
        topology = chain(3, link_delivery=0.8)
        sim = Simulator(topology, SimConfig(seed=1))
        config = RunConfig(seed=1, refresh_period=0.1)
        handle = setup_srcr_flow(sim, topology, 0, 3, total_packets=4)
        plan = handle.spec.plan
        refresher = LinkStateRefresher(sim, [handle], config)
        # Probes stopped returning: the control view sees no links at all.
        refresher.control_view = lambda: Topology(np.zeros((4, 4)))
        refresher._tick()
        assert refresher.skipped_flows == 1
        assert handle.spec.plan is plan
        assert plan.route == [0, 1, 2, 3]

    def test_refresh_uses_fresh_probe_noise_per_round(self):
        topology = chain(3, link_delivery=0.8)
        sim = Simulator(topology, SimConfig(seed=1))
        config = RunConfig(seed=1, refresh_period=0.1)
        refresher = LinkStateRefresher(sim, [], config)
        refresher.refreshes = 1
        first = refresher.control_view().delivery_matrix()
        refresher.refreshes = 2
        second = refresher.control_view().delivery_matrix()
        assert not np.allclose(first, second)
        # ... but each round replays identically (pure function of the seed).
        again = LinkStateRefresher(sim, [], RunConfig(seed=1, refresh_period=0.1))
        again.refreshes = 1
        np.testing.assert_array_equal(first, again.control_view().delivery_matrix())


class TestMoreRefresh:
    def test_recruits_new_forwarder_with_the_new_upstream_sets(self):
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_more_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                 coding_payload_size=4, control_topology=weak)
        spec = handle.spec
        old_plan = spec.plan
        assert old_plan.upstream.keys() == {1}
        assert old_plan.upstream[1] == frozenset({0})
        assert sim.nodes[2].agent is None

        handle.replan(full)

        plan = spec.plan
        assert plan is not old_plan
        assert plan.upstream.keys() == {1, 2}
        assert 2 in plan.tx_credit and 2 in plan.distances
        # The header lists one more forwarder, so every data frame grows.
        assert plan.frame_size == old_plan.frame_size + 2
        agent = sim.nodes[2].agent
        assert isinstance(agent, MoreAgent)
        assert spec.flow_id in agent.forward_flows
        # The relays are equidistant, so forwarder 1's upstream under the
        # new distances is the source alone: relay 2 is no farther away.
        assert plan.distances[1] == plan.distances[2]
        assert plan.distances[0] > plan.distances[1] > plan.distances[3]
        assert plan.upstream[1] == frozenset({0})
        assert plan.upstream[2] == frozenset({0})

    def test_dropped_forwarder_stops_accepting_data(self):
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_more_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                 coding_payload_size=4, control_topology=full)
        spec = handle.spec
        assert 2 in spec.plan.upstream
        handle.replan(weak)
        assert spec.plan.upstream.keys() == {1}
        # The dropped forwarder keeps its state but ignores the flow's data
        # from now on; the listed one takes the same frame.
        frame = sim.nodes[0].agent.on_transmit_opportunity(0.0)
        for node in (1, 2):
            sim.nodes[node].agent.on_frame_received(frame, 0.0)
        dropped = sim.nodes[2].agent.forward_flows[spec.flow_id]
        assert dropped.credit == 0.0 and dropped.encoder is None
        listed = sim.nodes[1].agent.forward_flows[spec.flow_id]
        assert listed.credit == spec.plan.tx_credit[1] and listed.encoder is not None


class TestExorRefresh:
    def test_reranks_without_resetting_progress(self):
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_exor_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                 control_topology=weak)
        spec = handle.spec
        assert 2 not in spec.plan.participants
        source_agent = sim.nodes[0].agent
        source_agent.source_progress[spec.flow_id] = 1  # mid-transfer

        handle.replan(full)

        assert 2 in spec.plan.participants
        # Newly recruited participant has per-flow state, ranked correctly.
        state = sim.nodes[2].agent.flows[spec.flow_id]
        assert state.rank == spec.plan.ranks[2]
        # Transfer progress survived the refresh.
        assert source_agent.source_progress[spec.flow_id] == 1
        # The strict schedule stays inside the (resized) participant list.
        assert handle.scheduler._position <= len(spec.plan.participants) - 1

    def test_holdings_reclaimed_after_rank_shift(self):
        """Regression: a refresh that renumbers ranks must not orphan the
        packets a surviving node is responsible for.

        The source loads a batch with map entries at its old rank; when
        pruning a participant shifts its rank, those entries named a rank
        nobody held any more — responsibility() matched nothing and the
        batch stalled until max_duration.
        """
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_exor_flow(sim, full, 0, 3, total_packets=4, batch_size=4,
                                 control_topology=full)
        spec = handle.spec
        source_agent = sim.nodes[0].agent
        source_agent.start_flow(spec.flow_id)
        state = source_agent.flows[spec.flow_id]
        old_rank = state.rank
        handle.replan(weak)  # relay 2 pruned
        assert state.rank < old_rank
        assert state.responsibility() == [0, 1, 2, 3]

    def test_dropped_participant_gets_inert_rank(self):
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_exor_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                 control_topology=full)
        spec = handle.spec
        assert 2 in spec.plan.participants
        handle.replan(weak)
        assert 2 not in spec.plan.participants
        state = sim.nodes[2].agent.flows[spec.flow_id]
        state.packets_received(state.batch_id).add(0)
        assert state.responsibility() == []  # never claims packets again

    def test_dropping_the_turn_holder_hands_the_turn_on(self):
        """Regression: the turn holder dropped by a re-plan kept the turn.

        Relay 5 of the flow 0 -> 3 (participants [3, 5, 0]) crashes at
        0.05 s holding the turn; the re-plan at 0.1 s drops it, and after
        its recovery at 0.15 s it had nothing pending, never passed the
        turn on, and the re-plans that re-admitted it did not wake it: the
        flow delivered 0 of 48 packets in 5 s.
        """
        topology = random_geometric(node_count=10, area=80.0, seed=1)
        config = RunConfig(total_packets=48, batch_size=16, max_duration=5.0,
                           refresh_period=0.1)
        faults = FaultSpec("scheduled", {"downs": {5: [[0.05, 0.15]]}})
        sim, (handle,) = start_flows(topology, "ExOR", [(0, 3)], config=config,
                                     environment=Environment(faults=faults))
        assert handle.spec.plan.participants == [3, 5, 0]
        holders = []
        grant = handle.scheduler._grant

        def recorded_grant(position):
            holders.append((sim.now, handle.spec.plan.participants[
                min(position, len(handle.spec.plan.participants) - 1)]))
            grant(position)

        handle.scheduler._grant = recorded_grant
        sim.run(stop_condition=sim.stats.all_flows_complete)
        assert (handle.record.delivered_packets, handle.record.completed) == (48, True)
        assert sim.now < config.max_duration
        # Node 5 held the turn through its outage, then lost it to the re-plan.
        assert any(node != 5 and 0.1 <= now < 0.15 for now, node in holders)


class TestFailedReplan:
    @pytest.mark.parametrize("protocol", ("MORE", "ExOR"))
    def test_asymmetric_control_view_leaves_the_plan_untouched(self, protocol):
        """Regression: a re-plan that fails part-way must not leave the flow
        half re-planned.

        The flow is set up without relay 2 and has run a little.  The new
        view recruits relay 2 and re-ranks the forwarders, but the
        destination reaches nobody in it, so there is no reverse (ACK)
        route: the last path computation fails, after a usable forward plan.
        The caller must keep the stale-but-consistent plan — the same
        object — and no agent may have been created or changed.
        """
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        if protocol == "MORE":
            handle = setup_more_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                     coding_payload_size=4, control_topology=weak)
        else:
            handle = setup_exor_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                     control_topology=weak)
        sim.run(until=0.02)
        asymmetric = full.delivery_matrix()
        asymmetric[3, :] = 0.0  # the destination can reach nobody
        asymmetric = Topology(asymmetric)
        assert 2 in forwarding_plan(asymmetric, 0, 3).participants
        plan = handle.spec.plan
        states = _flow_states(sim, handle.flow_id)
        assert sim.nodes[2].agent is None
        with pytest.raises(ValueError):
            handle.replan(asymmetric)
        assert handle.spec.plan is plan
        assert _flow_states(sim, handle.flow_id) == states


class TestSrcrRefresh:
    def test_reroute_and_detour_for_stranded_relay(self):
        # Chain route 0-1-2-3-4; after the refresh the control plane
        # prefers 0-1-3-4 via a new strong 1-3 link.  Node 2 holds queued
        # packets and must get a detour next hop instead of stranding them.
        topology = chain(4, link_delivery=0.8)
        rerouted = topology.delivery_matrix()
        rerouted[1, 3] = rerouted[3, 1] = 0.9
        rerouted[1, 2] = rerouted[2, 1] = 0.1
        control = Topology(rerouted)

        sim = Simulator(topology, SimConfig(seed=1))
        handle = setup_srcr_flow(sim, topology, 0, 4, total_packets=8)
        spec = handle.spec
        assert spec.plan.route == [0, 1, 2, 3, 4]
        relay = sim.nodes[2].agent
        assert isinstance(relay, SrcrAgent)
        relay.queues[spec.flow_id].extend([3, 4])

        handle.replan(control)

        assert spec.plan.route == [0, 1, 3, 4]
        # The stranded relay 2 keeps forwarding, onto the new route at 3.
        assert spec.plan.next_hop == {0: 1, 1: 3, 3: 4, 2: 3}

    def test_flow_without_next_hop_does_not_starve_others(self):
        """Regression: a relay holding one detour-less (stranded) flow must
        still serve its other flows' queues at each transmit opportunity
        instead of parking the MAC."""
        topology = chain(3, link_delivery=0.9)
        sim = Simulator(topology, SimConfig(seed=1))
        stranded = setup_srcr_flow(sim, topology, 0, 3, total_packets=4)
        healthy = setup_srcr_flow(sim, topology, 0, 3, total_packets=4)
        relay = sim.nodes[1].agent
        relay.queues[stranded.flow_id].append(0)
        relay.queues[healthy.flow_id].append(0)
        # A refresh moves the stranded flow's route off node 1, which the
        # new view cuts off from the destination: no detour either.
        direct_only = np.zeros((4, 4))
        direct_only[0, 3] = direct_only[3, 0] = 0.9
        stranded.replan(Topology(direct_only))
        assert stranded.spec.plan.next_hop == {0: 3}
        for _ in range(4):
            frame = relay.on_transmit_opportunity(0.0)
            assert frame is not None
            assert frame.flow_id == healthy.flow_id

    def test_refresh_without_queues_leaves_no_detours(self):
        topology = chain(3, link_delivery=0.8)
        sim = Simulator(topology, SimConfig(seed=1))
        handle = setup_srcr_flow(sim, topology, 0, 3, total_packets=4)
        handle.replan(topology)
        assert handle.spec.plan.route == [0, 1, 2, 3]
        assert handle.spec.plan.next_hop == {0: 1, 1: 2, 2: 3}  # no detour


def _refresh_once(sim, handle, view, **config) -> None:
    """One round of a refresh loop that holds ``config`` and probes ``view``."""
    refresher = LinkStateRefresher(sim, [handle],
                                   RunConfig(seed=1, refresh_period=1.0, **config))
    refresher.control_view = lambda: view
    refresher._tick()
    assert refresher.refreshes == 1 and refresher.skipped_flows == 0


class TestFlowKeepsWhatItWasSetUpWith:
    """A re-plan reads the flow, not the configuration of whoever calls it."""

    #: On this testbed pair the 10% rule keeps 3 of 19 participants, and the
    #: ETX and EOTX orders pick different relays for pair 0 -> 17.
    TESTBED = indoor_testbed(floors=3, seed=7)

    def test_unpruned_more_flow_stays_unpruned(self):
        testbed = self.TESTBED
        assert len(forwarding_plan(testbed, 17, 2).participants) == 3
        sim = Simulator(testbed, SimConfig(seed=1))
        handle = setup_more_flow(sim, testbed, 17, 2, total_packets=8, batch_size=4,
                                 coding_payload_size=4, prune=False)
        assert len(handle.spec.plan.tx_credit) == 19
        before = [entry.node_id for entry in handle.spec.plan.header_forwarders]
        _refresh_once(sim, handle, testbed)
        assert [entry.node_id for entry in handle.spec.plan.header_forwarders] == before
        assert len(handle.spec.plan.tx_credit) == 19

    def test_eotx_flow_replans_with_eotx(self):
        testbed = self.TESTBED
        etx = forwarding_plan(testbed, 0, 17, metric="etx").participants
        eotx = forwarding_plan(testbed, 0, 17, metric="eotx").participants
        assert etx != eotx
        sim = Simulator(testbed, SimConfig(seed=1))
        handle = setup_more_flow(sim, testbed, 0, 17, total_packets=8, batch_size=4,
                                 coding_payload_size=4, metric="eotx")
        assert sorted(handle.spec.plan.tx_credit) == sorted(eotx)
        # The loop's own config says "etx" (the default); the flow wins.
        _refresh_once(sim, handle, testbed, more_metric="etx")
        assert sorted(handle.spec.plan.tx_credit) == sorted(eotx)

    def test_capped_flow_keeps_its_cap(self):
        testbed = self.TESTBED
        sim = Simulator(testbed, SimConfig(seed=1))
        handle = setup_more_flow(sim, testbed, 17, 2, total_packets=8, batch_size=4,
                                 coding_payload_size=4, max_relays=5)
        assert len(handle.spec.plan.header_forwarders) == 5
        _refresh_once(sim, handle, testbed, max_relays=None)
        assert len(handle.spec.plan.header_forwarders) == 5

    def test_autorate_flow_recruits_autorate_relays(self):
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_srcr_flow(sim, full, 0, 3, total_packets=4,
                                 use_autorate=True, control_topology=weak)
        assert handle.spec.plan.route == [0, 1, 3]
        assert sim.nodes[2].agent is None
        other = full.delivery_matrix()
        for a, b in ((0, 1), (1, 0), (1, 3), (3, 1)):
            other[a, b] = 0.0
        _refresh_once(sim, handle, Topology(other), srcr_autorate=False)
        assert handle.spec.plan.route == [0, 2, 3]
        recruit = sim.nodes[2].agent
        assert isinstance(recruit, SrcrAgent)
        assert recruit.use_autorate and recruit.rate_controller is not None

    def test_recruited_more_agent_is_seeded_by_its_flow(self):
        """One rule: a node's agent is seeded by the flow that first installs
        it, whether set-up or a later re-plan gets there first."""
        full, weak = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        handle = setup_more_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                 coding_payload_size=4, seed=5,
                                 control_topology=weak)
        assert sim.nodes[2].agent is None
        _refresh_once(sim, handle, full)
        expected = MoreAgent(2, seed=5).rng.bit_generator.state
        assert sim.nodes[2].agent.rng.bit_generator.state == expected
        assert sim.nodes[1].agent.rng.bit_generator.state \
            == MoreAgent(1, seed=5).rng.bit_generator.state

    @pytest.mark.parametrize("protocol", ("MORE", "ExOR", "Srcr"))
    def test_disconnected_view_raises_and_leaves_the_spec_untouched(self, protocol):
        full, _ = _diamond_views()
        sim = Simulator(full, SimConfig(seed=1))
        if protocol == "MORE":
            handle = setup_more_flow(sim, full, 0, 3, total_packets=8, batch_size=4,
                                     coding_payload_size=4)
        elif protocol == "ExOR":
            handle = setup_exor_flow(sim, full, 0, 3, total_packets=8, batch_size=4)
        else:
            handle = setup_srcr_flow(sim, full, 0, 3, total_packets=8)
        spec = handle.spec
        before = copy.deepcopy(spec.plan)
        plan = spec.plan
        with pytest.raises(ValueError):
            handle.replan(Topology(np.zeros((4, 4))))
        assert spec.plan is plan and plan == before


def _supervised_chain(protocol):
    """A healthy 3-hop chain flow under a 0.1 s progress watchdog, not run yet."""
    config = RunConfig(seed=1, total_packets=32, batch_size=16, packet_size=256,
                       coding_payload_size=16, max_duration=30.0,
                       progress_timeout=0.1)
    sim, (handle,) = start_flows(chain(3, link_delivery=0.9), protocol, [(0, 3)],
                                 config)
    return sim, handle


class TestWatchdogSafetyChecks:
    """A broken invariant ends the flow at the next check, named in the reason."""

    def test_credit_below_the_floor_aborts_the_flow(self):
        sim, handle = _supervised_chain("MORE")
        sim.nodes[1].agent.forward_flows[handle.flow_id].credit = -1e6
        sim.run(stop_condition=sim.stats.all_flows_complete)
        record = handle.record
        assert record.aborted and record.end_time == pytest.approx(0.1)
        assert record.abort_reason.startswith(
            "credit conservation violated at node 1: credit=-")
        assert "forwarder credits [1:" in record.abort_reason

    def test_queue_past_the_bound_aborts_the_flow(self):
        sim, handle = _supervised_chain("Srcr")
        # The bound is max(64, 4 x 32 offered packets) = 128.
        sim.nodes[1].agent.queues[handle.flow_id].extend([0] * 10_000)
        sim.run(stop_condition=sim.stats.all_flows_complete)
        record = handle.record
        assert record.aborted and record.end_time == pytest.approx(0.1)
        assert record.abort_reason.startswith("queue bound exceeded at node 1: ")
        assert "(bound 128)" in record.abort_reason

    def test_flow_that_never_starts_ends_as_an_abort(self):
        """No agent, no traffic: the event queue would drain with the flow
        incomplete.  The watchdog's own ticks keep it alive, and the flow is
        aborted once its re-plans are spent."""
        topology = chain(3, link_delivery=0.9)
        sim = Simulator(topology, SimConfig(seed=1))
        sim.stats.register_flow(1, source=0, destination=3, total_packets=8,
                                packet_size=256, start_time=0.0)
        stub = SimpleNamespace(flow_id=1, replan=lambda control: None)
        FlowSupervisor(sim, [stub], RunConfig(seed=1, progress_timeout=0.5)).install()
        sim.run(until=30.0, stop_condition=sim.stats.all_flows_complete)
        record = sim.stats.flows[1]
        assert record.aborted
        # Baseline, then three re-plans, then the abort: five checks.
        assert record.end_time == pytest.approx(5 * 0.5)
        assert record.abort_reason == ("no progress for 0.5s after 3 recovery "
                                       "re-plan(s); down nodes []; delivered 0/8")


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", ("MORE", "ExOR", "Srcr"))
    def test_dynamic_run_with_refresh_completes(self, protocol):
        topology = chain(4, link_delivery=0.75, skip_delivery=0.25)
        config = RunConfig(total_packets=24, batch_size=8, packet_size=256,
                           coding_payload_size=8, seed=1, max_duration=30.0,
                           refresh_period=0.5)
        churn = MobilitySpec("link_churn", {"mean_up_time": 3.0,
                                            "mean_down_time": 0.5,
                                            "down_scale": 0.2,
                                            "epoch_length": 0.25})
        result = run_single_flow(topology, protocol, 0, 4, config=config,
                                 environment=Environment(mobility=churn))
        assert result.completed
        assert result.delivered_packets == result.total_packets

    def test_refresh_period_validation(self):
        with pytest.raises(ValueError, match="refresh_period"):
            RunConfig(refresh_period=0.0)
        assert math.isinf(RunConfig(refresh_period="inf").refresh_period)
        assert RunConfig(refresh_period=2).refresh_period == 2.0
        # "inf" is the one documented string: JSON has no infinity.
        with pytest.raises(ValueError, match="refresh_period must be a number"):
            RunConfig(refresh_period="2.5")
