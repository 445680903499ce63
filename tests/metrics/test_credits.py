"""Tests for Algorithm 1, TX credits (Eq. 3.3), pruning and Algorithm 6."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.credits import (
    PRUNING_FRACTION,
    candidate_forwarders,
    expected_transmissions,
    forwarding_plan,
    load_distribution,
    prune_forwarders,
)
from repro.metrics.eotx import eotx_dijkstra
from repro.metrics.etx import etx_to_destination
from repro.topology.generator import chain, random_mesh, two_hop_relay
from repro.topology.graph import Topology


def naive_algorithm_1(topology, order):
    """Literal transcription of Algorithm 1 used as a reference."""
    eps = 1.0 - topology.delivery_matrix()  # 1 on the diagonal: no self links
    load = {node: 0.0 for node in order}
    z = {node: 0.0 for node in order}
    load[order[-1]] = 1.0
    for position in range(len(order) - 1, 0, -1):
        node = order[position]
        closer = order[:position]
        success = 1 - np.prod([eps[node, k] for k in closer])
        z[node] = load[node] / success if success > 0 else 0.0
        for j_position in range(1, position):
            j = closer[j_position]
            prefix = np.prod([eps[node, k] for k in closer[:j_position]])
            load[j] += z[node] * prefix * (1 - eps[node, j])
    return z


class TestCandidateForwarders:
    def test_relay(self, relay_topology):
        participants, distances = candidate_forwarders(relay_topology, 0, 2)
        assert participants == [2, 1, 0]
        assert distances[2] == 0.0

    def test_only_closer_nodes_included(self, small_mesh):
        source, destination = small_mesh.node_count - 1, 0
        participants, distances = candidate_forwarders(small_mesh, source, destination)
        assert participants[0] == destination
        assert participants[-1] == source
        for node in participants[1:-1]:
            assert distances[node] < distances[source]

    def test_unreachable_source_rejected(self):
        import numpy as np
        from repro.topology.graph import Topology
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        with pytest.raises(ValueError):
            candidate_forwarders(Topology(matrix), 2, 0)


class TestAlgorithm1:
    def test_relay_topology_values(self, relay_topology):
        """Hand-computed values for Figure 1-1: z_src = 1, z_R = 0.51."""
        plan = expected_transmissions(relay_topology, 0, 2)
        assert plan.z[0] == pytest.approx(1.0)
        assert plan.z[1] == pytest.approx(0.51)
        assert plan.total_cost == pytest.approx(1.51)

    def test_matches_naive_reference(self, small_mesh):
        source, destination = small_mesh.node_count - 1, 0
        plan = expected_transmissions(small_mesh, source, destination)
        reference = naive_algorithm_1(small_mesh, plan.participants)
        for node in plan.participants:
            assert plan.z[node] == pytest.approx(reference[node], abs=1e-9)

    def test_source_load_is_one(self, diamond_topology):
        destination = diamond_topology.node_count - 1
        plan = expected_transmissions(diamond_topology, 0, destination)
        assert plan.load[0] == pytest.approx(1.0)

    def test_chain_equals_etx(self):
        """On a pure chain there is no opportunism: total cost equals path ETX."""
        topo = chain(3, link_delivery=0.5)
        plan = expected_transmissions(topo, 0, 3)
        assert plan.total_cost == pytest.approx(etx_to_destination(topo, 3)[0])

    def test_total_cost_at_least_eotx(self, small_mesh):
        """ETX-ordered opportunistic cost is lower-bounded by EOTX (optimal)."""
        source, destination = small_mesh.node_count - 1, 0
        plan = expected_transmissions(small_mesh, source, destination, metric="etx")
        eotx = eotx_dijkstra(small_mesh, destination)
        assert plan.total_cost >= eotx[source] - 1e-9

    def test_eotx_order_achieves_eotx(self, small_mesh):
        """Section 5.6.2: with the EOTX order, Algorithm 1 sums to the EOTX."""
        source, destination = small_mesh.node_count - 1, 0
        plan = expected_transmissions(small_mesh, source, destination, metric="eotx")
        eotx = eotx_dijkstra(small_mesh, destination)
        assert plan.total_cost == pytest.approx(eotx[source], rel=1e-9)


class TestTxCredits:
    def test_relay_credit(self, relay_topology):
        plan = expected_transmissions(relay_topology, 0, 2)
        # Eq. 3.3: credit_R = z_R / (z_src * (1 - eps_src,R)) = 0.51 / 1.0
        assert plan.tx_credit[1] == pytest.approx(0.51)
        assert plan.tx_credit[0] == 0.0  # the source is clocked by ACKs

    def test_credits_non_negative(self, small_mesh):
        plan = expected_transmissions(small_mesh, small_mesh.node_count - 1, 0)
        assert (plan.tx_credit >= 0).all()

    def test_destination_has_no_credit(self, diamond_topology):
        destination = diamond_topology.node_count - 1
        plan = expected_transmissions(diamond_topology, 0, destination)
        assert plan.tx_credit[destination] == 0.0


class TestPruning:
    def test_low_contribution_forwarders_removed(self):
        """A relay with a tiny z must be pruned (10% rule)."""
        topo = two_hop_relay(source_to_relay=1.0, relay_to_destination=1.0,
                             source_to_destination=0.95)
        plan = expected_transmissions(topo, 0, 2)
        pruned = prune_forwarders(topo, plan)
        # Direct link dominates; the relay's z is ~5% of total -> pruned.
        assert 1 not in pruned.forwarder_list()
        assert 0 in pruned.participants and 2 in pruned.participants

    def test_source_and_destination_never_pruned(self):
        """Twelve relays each hear the source with probability 0.1 and reach
        the destination surely: the load spreads so thin that no relay
        carries 10% of the transmissions, and the rule drops every one of
        them — but never an endpoint."""
        relays = 12
        matrix = np.zeros((relays + 2, relays + 2))
        source, destination = relays + 1, 0
        matrix[source, 1:source] = 0.1
        matrix[1:source, destination] = 1.0
        topo = Topology(matrix)
        plan = expected_transmissions(topo, source, destination)
        assert len(plan.forwarder_list()) == relays
        assert max(plan.z[1:source]) < PRUNING_FRACTION * plan.total_cost
        pruned = prune_forwarders(topo, plan)
        assert pruned.forwarder_list() == []
        assert pruned.participants == [destination, source]

    def test_pruned_plan_is_self_consistent(self):
        """Pruned nodes lose z, load AND distance (regression).

        The old implementation zeroed ``z``/``load`` but returned pruned
        nodes still carrying finite ``distances``, so a participant check
        keyed off distances disagreed with ``participants``.
        """
        topo = two_hop_relay(source_to_relay=1.0, relay_to_destination=1.0,
                             source_to_destination=0.95)
        plan = expected_transmissions(topo, 0, 2)
        assert math.isfinite(plan.distances[1])  # a participant pre-prune
        pruned = prune_forwarders(topo, plan)
        assert 1 not in pruned.participants
        assert math.isinf(pruned.distances[1])
        assert pruned.z[1] == 0.0 and pruned.load[1] == 0.0
        # Distance-keyed and participant-keyed views now agree for every
        # node of the original plan.
        for node in plan.participants:
            assert (node in pruned.participants) == \
                math.isfinite(pruned.distances[node])
        # The original plan is untouched (its own distances stay finite).
        assert math.isfinite(plan.distances[1])
        # Surviving participants keep their distances bit for bit.
        for node in pruned.participants:
            assert pruned.distances[node] == plan.distances[node]

    def test_forwarding_plan_wrapper(self, testbed):
        plan = forwarding_plan(testbed, 17, 2)
        unpruned = forwarding_plan(testbed, 17, 2, prune=False)
        assert len(plan.participants) <= len(unpruned.participants)
        assert plan.total_cost <= unpruned.total_cost + 1e-9


class TestAlgorithm6:
    def test_load_distribution_total_equals_eotx(self, small_mesh):
        """The flow method's total cost equals the EOTX of the source."""
        source, destination = small_mesh.node_count - 1, 0
        plan = load_distribution(small_mesh, source, destination)
        eotx = eotx_dijkstra(small_mesh, destination)
        assert plan.total_cost == pytest.approx(eotx[source], rel=1e-9)

    def test_flow_method_matches_algorithm_1_under_eotx_order(self, small_mesh):
        """Section 5.6.2: Algorithm 6 and Algorithm 1 agree when the EOTX
        order is used and losses are independent."""
        source, destination = small_mesh.node_count - 1, 0
        flow_plan = load_distribution(small_mesh, source, destination)
        eotx_plan = expected_transmissions(small_mesh, source, destination, metric="eotx")
        for node in flow_plan.participants:
            assert flow_plan.z[node] == pytest.approx(eotx_plan.z[node], abs=1e-9)

    def test_edge_flows_conserve_load(self, diamond_topology):
        destination = diamond_topology.node_count - 1
        plan = load_distribution(diamond_topology, 0, destination)
        inflow_at_destination = sum(flow for (_, j), flow in plan.x.items()
                                    if j == destination)
        assert inflow_at_destination == pytest.approx(1.0, abs=1e-9)

    def test_flows_only_go_downhill(self, small_mesh):
        """Proposition 2 (water filling): flow never goes to a costlier node."""
        source, destination = small_mesh.node_count - 1, 0
        plan = load_distribution(small_mesh, source, destination)
        for (i, j), flow in plan.x.items():
            if flow > 1e-12:
                assert plan.distances[j] < plan.distances[i]


@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_property_total_cost_bracketed_by_eotx_and_etx(size, seed):
    """EOTX <= Algorithm-1 cost (ETX order) <= path ETX, for any mesh."""
    topo = random_mesh(size, density=0.55, seed=seed)
    source, destination = size - 1, 0
    etx = etx_to_destination(topo, destination)
    if math.isinf(etx[source]):
        return
    plan = expected_transmissions(topo, source, destination, metric="etx")
    eotx = eotx_dijkstra(topo, destination)
    assert eotx[source] - 1e-9 <= plan.total_cost <= etx[source] + 1e-9


@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_property_credits_reproduce_z_in_expectation(size, seed):
    """Eq. 3.3 inverted: credit_i times expected upstream receptions equals z_i."""
    topo = random_mesh(size, density=0.55, seed=seed)
    source, destination = size - 1, 0
    plan = expected_transmissions(topo, source, destination)
    delivery = topo.delivery_matrix()
    order = plan.participants
    for position, node in enumerate(order[:-1]):
        expected_receptions = sum(plan.z[up] * delivery[up, node]
                                  for up in order[position + 1:])
        if plan.tx_credit[node] > 0:
            assert plan.tx_credit[node] * expected_receptions == pytest.approx(
                plan.z[node], rel=1e-9)


def test_forwarding_plan_on_testbed(testbed):
    """Algorithm 1 + Eq. 3.3 + pruning for the testbed's 17 -> 2 flow: the
    shared plan equals one derived afresh, and every relay it keeps carries
    at least the pruning fraction of the unpruned plan's transmissions."""
    plan = forwarding_plan(testbed, 17, 2)
    fresh = forwarding_plan(Topology(testbed.delivery_matrix()), 17, 2)
    assert plan.participants == fresh.participants
    assert np.array_equal(plan.z, fresh.z)
    assert np.array_equal(plan.tx_credit, fresh.tx_credit)
    assert plan.participants[0] == 2 and plan.participants[-1] == 17
    unpruned = forwarding_plan(testbed, 17, 2, prune=False)
    assert unpruned.total_cost >= eotx_dijkstra(testbed, 2)[17] - 1e-9
    for node in plan.forwarder_list():
        assert plan.z[node] >= PRUNING_FRACTION * unpruned.total_cost
