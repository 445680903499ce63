"""Tests for probe-based link quality estimation (control-plane view)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import grid, two_hop_relay
from repro.topology.graph import Topology


class TestProbeEstimates:
    def test_optimism_raises_probabilities(self):
        topo = two_hop_relay(source_to_relay=0.5, relay_to_destination=0.5,
                             source_to_destination=0.3)
        estimated = probe_estimated_topology(topo, optimism_exponent=0.5, probe_count=0)
        assert estimated.delivery(0, 1) == pytest.approx(0.5 ** 0.5)
        assert estimated.delivery(0, 2) == pytest.approx(0.3 ** 0.5)

    def test_zero_links_stay_zero(self):
        matrix = two_hop_relay(source_to_destination=0.49).delivery_matrix()
        matrix[0, 2] = matrix[2, 0] = 0.0
        topo = Topology(matrix)
        estimated = probe_estimated_topology(topo, probe_count=0)
        assert estimated.delivery(0, 2) == 0.0

    def test_exponent_one_without_sampling_is_identity(self, testbed):
        estimated = probe_estimated_topology(testbed, optimism_exponent=1.0, probe_count=0)
        assert np.allclose(estimated.delivery_matrix(), testbed.delivery_matrix())

    def test_sampling_noise_is_bounded_and_deterministic(self, testbed):
        a = probe_estimated_topology(testbed, probe_count=100, seed=3)
        b = probe_estimated_topology(testbed, probe_count=100, seed=3)
        assert np.allclose(a.delivery_matrix(), b.delivery_matrix())
        c = probe_estimated_topology(testbed, probe_count=100, seed=4)
        assert not np.allclose(a.delivery_matrix(), c.delivery_matrix())
        assert a.delivery_matrix().max() <= 1.0
        assert a.delivery_matrix().min() >= 0.0

    def test_estimates_are_optimistic_on_average(self, testbed):
        estimated = probe_estimated_topology(testbed, seed=1)
        true_matrix = testbed.delivery_matrix()
        est_matrix = estimated.delivery_matrix()
        mask = true_matrix > 0.05
        assert est_matrix[mask].mean() > true_matrix[mask].mean()

    def test_preserves_names_and_positions(self, testbed):
        estimated = probe_estimated_topology(testbed, seed=0)
        assert estimated.node_count == testbed.node_count
        assert estimated.nodes[5].name == testbed.nodes[5].name
        assert estimated.nodes[5].position == testbed.nodes[5].position

    def test_positions_carried_iff_every_node_has_one(self):
        # Node 0 lacking a position must not decide for everyone (the old
        # truthiness check inspected node 0 only), and a partially
        # positioned topology must drop positions for all nodes rather
        # than carrying a ragged mix — the mobility layer depends on
        # positions either fully surviving estimation or cleanly absent.
        from repro.topology.graph import Node

        full = grid(2, 2)
        estimated = probe_estimated_topology(full, seed=1)
        assert estimated.node_positions() is not None
        assert [n.position for n in estimated.nodes] == \
            [n.position for n in full.nodes]

        ragged = grid(2, 2)
        ragged.nodes[0] = Node(0, name=ragged.nodes[0].name, position=())
        assert ragged.node_positions() is None
        estimated = probe_estimated_topology(ragged, seed=1)
        assert estimated.node_positions() is None

        # The inverse mix: node 0 positioned, a later node not — the old
        # node-0-only check carried a ragged position list.
        ragged_tail = grid(2, 2)
        ragged_tail.nodes[3] = Node(3, name=ragged_tail.nodes[3].name, position=())
        estimated = probe_estimated_topology(ragged_tail, seed=1)
        assert estimated.node_positions() is None

    def test_tuple_seed_gives_independent_refresh_noise(self, testbed):
        a = probe_estimated_topology(testbed, probe_count=100, seed=(3, 1))
        b = probe_estimated_topology(testbed, probe_count=100, seed=(3, 1))
        c = probe_estimated_topology(testbed, probe_count=100, seed=(3, 2))
        assert np.allclose(a.delivery_matrix(), b.delivery_matrix())
        assert not np.allclose(a.delivery_matrix(), c.delivery_matrix())

    @pytest.mark.parametrize("exponent", [0.45, 0.5, 1.0])
    @pytest.mark.parametrize("probes", [0, 100])
    def test_matches_the_per_link_reference(self, testbed, exponent, probes):
        """Bit for bit what exponentiating and probing the non-zero links
        alone, in row-major order, gives."""
        true_delivery = testbed.delivery_matrix()
        links = np.nonzero(true_delivery)
        expected_links = true_delivery[links] ** exponent
        if probes:
            rng = np.random.default_rng((5, 2))
            expected_links = rng.binomial(probes, expected_links) / probes
        expected = np.zeros_like(true_delivery)
        expected[links] = expected_links
        estimated = probe_estimated_topology(testbed, optimism_exponent=exponent,
                                             probe_count=probes, seed=(5, 2))
        assert estimated.delivery_matrix().tobytes() == expected.tobytes()

    def test_invalid_arguments(self, testbed):
        with pytest.raises(ValueError):
            probe_estimated_topology(testbed, optimism_exponent=0.0)
        with pytest.raises(ValueError):
            probe_estimated_topology(testbed, optimism_exponent=1.5)
        with pytest.raises(ValueError):
            probe_estimated_topology(testbed, probe_count=-1)
