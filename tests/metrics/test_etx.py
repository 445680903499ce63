"""Tests for the ETX metric and best-path routing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.metrics.etx import (
    LINK_THRESHOLD,
    best_path,
    etx_order,
    etx_to_destination,
    hop_count,
    link_etx,
    link_rows,
    path_etx,
)
from repro.topology.generator import chain, two_hop_relay
from repro.topology.graph import Topology


class TestLinkEtx:
    def test_forward_only(self, relay_topology):
        assert link_etx(relay_topology, 0, 1) == pytest.approx(1.0)
        assert link_etx(relay_topology, 0, 2) == pytest.approx(1 / 0.49)

    def test_ack_aware(self):
        topo = Topology(np.array([[0, 0.8], [0.5, 0]]))
        assert link_etx(topo, 0, 1, ack_aware=True) == pytest.approx(1 / (0.8 * 0.5))

    def test_unusable_link_is_infinite(self):
        topo = Topology(np.zeros((2, 2)))
        assert math.isinf(link_etx(topo, 0, 1))

    def test_link_at_the_cut_is_unusable(self):
        topo = Topology(np.array([[0, LINK_THRESHOLD], [LINK_THRESHOLD, 0]]))
        assert math.isinf(link_etx(topo, 0, 1))
        assert math.isinf(link_etx(topo, 0, 1, ack_aware=True))
        rows = link_rows(topo)
        assert rows.senders.size == 0 and list(rows.indptr) == [0, 0, 0]

    def test_link_just_above_the_cut_is_usable(self):
        above = np.nextafter(LINK_THRESHOLD, 1.0)
        topo = Topology(np.array([[0, above], [0, 0]]))
        assert link_etx(topo, 0, 1) == 1.0 / above
        rows = link_rows(topo)
        assert list(rows.indptr) == [0, 0, 1]
        assert list(rows.senders) == [0] and list(rows.cost) == [1.0 / above]


class TestEtxToDestination:
    def test_figure_1_1_values(self, relay_topology):
        distances = etx_to_destination(relay_topology, 2)
        assert distances[2] == 0.0
        assert distances[1] == pytest.approx(1.0)
        # Path through R (cost 2) beats the direct link (cost 2.04).
        assert distances[0] == pytest.approx(2.0)

    def test_chain(self):
        topo = chain(3, link_delivery=0.5)
        distances = etx_to_destination(topo, 3)
        assert distances[0] == pytest.approx(6.0)
        assert distances[2] == pytest.approx(2.0)

    def test_unreachable_node(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        topo = Topology(matrix)
        distances = etx_to_destination(topo, 0)
        assert math.isinf(distances[2])

    def test_monotone_in_link_quality(self):
        good = chain(2, link_delivery=0.9)
        bad = chain(2, link_delivery=0.5)
        assert etx_to_destination(good, 2)[0] < etx_to_destination(bad, 2)[0]


class TestBestPath:
    def test_relay_preferred_over_direct(self, relay_topology):
        assert best_path(relay_topology, 0, 2) == [0, 1, 2]

    def test_direct_when_better(self):
        topo = two_hop_relay(source_to_relay=0.5, relay_to_destination=0.5,
                             source_to_destination=0.9)
        assert best_path(topo, 0, 2) == [0, 2]

    def test_path_etx_consistent_with_distance(self, small_mesh):
        destination = small_mesh.node_count - 1
        distances = etx_to_destination(small_mesh, destination)
        for source in range(small_mesh.node_count - 1):
            if math.isinf(distances[source]):
                continue
            path = best_path(small_mesh, source, destination)
            assert path[0] == source and path[-1] == destination
            assert path_etx(small_mesh, path) == pytest.approx(distances[source])

    def test_no_path_raises(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        topo = Topology(matrix)
        with pytest.raises(ValueError):
            best_path(topo, 0, 2)

    def test_hop_count(self, relay_topology):
        assert hop_count(relay_topology, 0, 2) == 2
        assert hop_count(relay_topology, 1, 2) == 1


class TestEtxOrder:
    def test_destination_first_source_reachable(self, chain_topology):
        order = etx_order(chain_topology, 3)
        assert order[0] == 3
        assert set(order) == {0, 1, 2, 3}
        distances = etx_to_destination(chain_topology, 3)
        assert all(distances[a] <= distances[b] for a, b in zip(order, order[1:]))

    def test_unreachable_nodes_omitted(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = 0.9
        topo = Topology(matrix)
        assert set(etx_order(topo, 0)) == {0, 1}
