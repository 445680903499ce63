"""Tests for the min-cost information flow LP and Proposition 4 (EOTX = LP)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.eotx import eotx_dijkstra
from repro.metrics.lp import solve_min_cost_flow, verify_flow_conservation
from repro.topology.generator import chain, diamond, random_mesh, two_hop_relay

pytest.importorskip("scipy")  # a test extra: the solver behind the LP oracle


class TestLpBasics:
    def test_single_link(self):
        topo = chain(1, link_delivery=0.5)
        solution = solve_min_cost_flow(topo, 0, 1)
        assert solution.total_cost == pytest.approx(2.0, abs=1e-6)
        assert solution.z[0] == pytest.approx(2.0, abs=1e-6)

    def test_relay_topology(self, relay_topology):
        solution = solve_min_cost_flow(relay_topology, 0, 2)
        assert solution.total_cost == pytest.approx(1.51, abs=1e-6)

    def test_scaling_property(self, relay_topology):
        """Proposition 1: the optimum scales linearly with demand."""
        one = solve_min_cost_flow(relay_topology, 0, 2, demand=1.0)
        five = solve_min_cost_flow(relay_topology, 0, 2, demand=5.0)
        assert five.total_cost == pytest.approx(5 * one.total_cost, rel=1e-6)

    def test_flow_conservation(self, diamond_topology):
        destination = diamond_topology.node_count - 1
        solution = solve_min_cost_flow(diamond_topology, 0, destination)
        assert verify_flow_conservation(solution, 0, destination)

    def test_same_source_destination_rejected(self, relay_topology):
        with pytest.raises(ValueError):
            solve_min_cost_flow(relay_topology, 1, 1)

    def test_unreachable_rejected(self):
        import numpy as np
        from repro.topology.graph import Topology
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        with pytest.raises(ValueError):
            solve_min_cost_flow(Topology(matrix), 0, 2)

    def test_prefix_constraints_match_full_enumeration(self, diamond_topology):
        """Propositions 2-3: the cheapest-prefix constraints are sufficient."""
        destination = diamond_topology.node_count - 1
        full = solve_min_cost_flow(diamond_topology, 0, destination)
        prefix = solve_min_cost_flow(diamond_topology, 0, destination,
                                     prefix_constraints_only=True)
        assert prefix.total_cost == pytest.approx(full.total_cost, rel=1e-6)


class TestProposition4:
    """EOTX equals the LP optimum (Proposition 4, "Equivalence")."""

    @pytest.mark.parametrize("topo_builder,destination", [
        (lambda: two_hop_relay(), 2),
        (lambda: chain(3, link_delivery=0.6, skip_delivery=0.3), 3),
        (lambda: diamond(0.4, 0.7, relay_count=3), 4),
        (lambda: diamond(0.3, 0.3, relay_count=2, direct=0.1), 3),
    ])
    def test_eotx_equals_lp_on_analytic_topologies(self, topo_builder, destination):
        topo = topo_builder()
        eotx = eotx_dijkstra(topo, destination)
        lp = solve_min_cost_flow(topo, 0, destination)
        assert lp.total_cost == pytest.approx(eotx[0], rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_eotx_equals_lp_on_random_meshes(self, seed):
        topo = random_mesh(7, density=0.55, seed=seed)
        destination = 0
        source = topo.node_count - 1
        eotx = eotx_dijkstra(topo, destination)
        lp = solve_min_cost_flow(topo, source, destination,
                                 prefix_constraints_only=True)
        assert lp.total_cost == pytest.approx(eotx[source], rel=1e-5, abs=1e-6)


@given(st.integers(min_value=4, max_value=7), st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_property_lp_optimum_equals_eotx(size, seed):
    """Proposition 4 as a property over random connected meshes."""
    topo = random_mesh(size, density=0.6, seed=seed)
    destination = 0
    source = size - 1
    eotx = eotx_dijkstra(topo, destination)
    lp = solve_min_cost_flow(topo, source, destination, prefix_constraints_only=True)
    assert lp.total_cost == pytest.approx(eotx[source], rel=1e-5, abs=1e-6)


def test_min_cost_flow_lp():
    """The reference LP of Section 5.3 on an 8-node mesh (prefix constraints)
    conserves flow and meets the EOTX (Proposition 4)."""
    topo = random_mesh(8, density=0.5, seed=3)
    solution = solve_min_cost_flow(topo, 7, 0, prefix_constraints_only=True)
    assert verify_flow_conservation(solution, 7, 0)
    assert solution.total_cost == pytest.approx(eotx_dijkstra(topo, 0)[7], rel=1e-5, abs=1e-6)
