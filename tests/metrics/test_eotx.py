"""Tests for the EOTX metric: the three formulations must agree (Chapter 5)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.eotx import (
    eotx_bellman_ford,
    eotx_dijkstra,
    eotx_order,
    eotx_recursive,
)
from repro.metrics.etx import etx_to_destination
from repro.topology.generator import chain, diamond, random_mesh
from repro.topology.graph import Topology


def assert_costs_close(a, b, tol=1e-9):
    a = np.nan_to_num(np.asarray(a), posinf=1e18)
    b = np.nan_to_num(np.asarray(b), posinf=1e18)
    assert np.allclose(a, b, rtol=1e-7, atol=tol)


class TestAnalyticCases:
    def test_single_link(self):
        topo = chain(1, link_delivery=0.5)
        costs = eotx_dijkstra(topo, 1)
        assert costs[1] == 0.0
        assert costs[0] == pytest.approx(2.0)

    def test_figure_1_1_relay(self, relay_topology):
        """src->R and src->dst at 0.49: EOTX uses both receptions.

        d(src) = (1 + 0.49*0 + 0.51*1) / 1 = 1.51, below the ETX of 2.
        """
        costs = eotx_dijkstra(relay_topology, 2)
        assert costs[1] == pytest.approx(1.0)
        assert costs[0] == pytest.approx(1.51)

    def test_diamond_closed_form(self):
        """Source -> k relays (p each) -> destination (q each).

        d(relay) = 1/q; d(src) = (1 + (1-(1-p)^k)/q) / (1-(1-p)^k).
        """
        p, q, k = 0.5, 0.5, 3
        topo = diamond(p, q, relay_count=k)
        destination = topo.node_count - 1
        costs = eotx_dijkstra(topo, destination)
        reach = 1 - (1 - p) ** k
        expected_src = (1 + reach * (1 / q)) / reach
        for relay in range(1, k + 1):
            assert costs[relay] == pytest.approx(1 / q)
        assert costs[0] == pytest.approx(expected_src)

    def test_opportunism_beats_etx(self):
        """EOTX is never above ETX: using extra forwarders can only help."""
        for seed in range(5):
            topo = random_mesh(9, density=0.45, seed=seed)
            destination = 0
            etx = etx_to_destination(topo, destination)
            eotx = eotx_dijkstra(topo, destination)
            for node in range(topo.node_count):
                if math.isinf(etx[node]):
                    continue
                assert eotx[node] <= etx[node] + 1e-9

    def test_destination_cost_is_zero(self, small_mesh):
        assert eotx_dijkstra(small_mesh, 4)[4] == 0.0

    def test_disconnected_node_is_infinite(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.8
        topo = Topology(matrix)
        costs = eotx_dijkstra(topo, 0)
        assert math.isinf(costs[2])


class TestFormulationEquivalence:
    def test_bellman_ford_matches_dijkstra_small(self, relay_topology, diamond_topology):
        for topo, destination in [(relay_topology, 2),
                                  (diamond_topology, diamond_topology.node_count - 1)]:
            assert_costs_close(eotx_bellman_ford(topo, destination),
                               eotx_dijkstra(topo, destination))

    def test_recursive_matches_dijkstra_small(self, relay_topology, diamond_topology):
        for topo, destination in [(relay_topology, 2),
                                  (diamond_topology, diamond_topology.node_count - 1)]:
            assert_costs_close(eotx_recursive(topo, destination),
                               eotx_dijkstra(topo, destination))

    @pytest.mark.parametrize("seed", range(6))
    def test_bellman_ford_matches_dijkstra_random(self, seed):
        topo = random_mesh(10, density=0.45, seed=seed)
        destination = seed % topo.node_count
        assert_costs_close(eotx_bellman_ford(topo, destination),
                           eotx_dijkstra(topo, destination))

    @pytest.mark.parametrize("seed", range(4))
    def test_recursive_matches_dijkstra_random(self, seed):
        topo = random_mesh(8, density=0.5, seed=seed)
        destination = 0
        assert_costs_close(eotx_recursive(topo, destination),
                           eotx_dijkstra(topo, destination))

    def test_testbed_costs_finite_and_consistent(self, testbed):
        destination = 5
        dijkstra = eotx_dijkstra(testbed, destination)
        bellman = eotx_bellman_ford(testbed, destination)
        assert_costs_close(dijkstra, bellman, tol=1e-6)
        assert np.isfinite(dijkstra).all()


class TestEotxOrder:
    def test_order_is_by_cost(self, small_mesh):
        destination = 2
        order = eotx_order(small_mesh, destination)
        costs = eotx_dijkstra(small_mesh, destination)
        assert order[0] == destination
        assert all(costs[a] <= costs[b] + 1e-12 for a, b in zip(order, order[1:]))

    def test_order_can_differ_from_etx_order(self, gap_topology):
        """On the Figure 5-1 topology node B is useless under ETX ordering but
        ranks ahead of the source under EOTX."""
        destination = gap_topology.node_count - 1
        etx = etx_to_destination(gap_topology, destination)
        eotx = eotx_dijkstra(gap_topology, destination)
        source, node_b = 0, 2
        assert etx[node_b] >= etx[source]          # ETX: B no closer than src
        assert eotx[node_b] < eotx[source]          # EOTX: B strictly closer


@given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_property_dijkstra_equals_bellman_ford(size, seed):
    """Algorithm 5 and Algorithms 3+4 agree on arbitrary random meshes."""
    topo = random_mesh(size, density=0.5, seed=seed)
    destination = seed % size
    assert_costs_close(eotx_bellman_ford(topo, destination),
                       eotx_dijkstra(topo, destination))


@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_property_eotx_never_exceeds_etx(size, seed):
    """Opportunistic cost is a lower bound on single-path cost."""
    topo = random_mesh(size, density=0.5, seed=seed)
    destination = 0
    etx = etx_to_destination(topo, destination)
    eotx = eotx_dijkstra(topo, destination)
    for node in range(size):
        if not math.isinf(etx[node]):
            assert eotx[node] <= etx[node] + 1e-9


def _underived(topology: Topology) -> Topology:
    """A copy with nothing derived from it yet (``Topology.derived`` is empty)."""
    return Topology(topology.delivery_matrix(), positions=topology.node_positions())


def test_eotx_dijkstra_on_testbed(testbed):
    """Algorithm 5 over the 20-node testbed, for every destination: computed
    afresh it equals the shared memoized copy, which callers cannot write."""
    for destination in range(testbed.node_count):
        shared = eotx_dijkstra(testbed, destination)
        assert not shared.flags.writeable
        assert np.array_equal(eotx_dijkstra(_underived(testbed), destination), shared)
        assert shared[destination] == 0.0 and np.isfinite(shared).all()


def test_eotx_bellman_ford_on_testbed(testbed):
    """Algorithms 3+4 over the 20-node testbed, for every destination: they
    agree with Algorithm 5 and never exceed the single-path ETX."""
    for destination in range(testbed.node_count):
        costs = eotx_bellman_ford(testbed, destination)
        assert np.isfinite(costs).all()
        assert_costs_close(costs, eotx_dijkstra(testbed, destination), tol=1e-6)
        assert (costs <= etx_to_destination(testbed, destination) + 1e-9).all()
