"""Tests for the Topology data model."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.metrics.etx import link_rows
from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import random_geometric
from repro.topology.graph import LinkView, Node, Topology


def square_matrix(values):
    return np.asarray(values, dtype=float)


class TestConstruction:
    def test_basic(self):
        topo = Topology(square_matrix([[0, 0.5], [0.5, 0]]))
        assert topo.node_count == 2
        assert topo.delivery(0, 1) == 0.5
        assert topo.loss(0, 1) == 0.5

    def test_diagonal_zeroed(self):
        topo = Topology(square_matrix([[0.9, 0.5], [0.5, 0.9]]))
        assert topo.delivery(0, 0) == 0.0
        assert topo.delivery(1, 1) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 3)))

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            Topology(square_matrix([[0, 1.5], [0.5, 0]]))

    def test_names_and_positions(self):
        topo = Topology(square_matrix([[0, 1], [1, 0]]),
                        positions=[(0, 0), (1, 1)], names=["a", "b"])
        assert topo.nodes[0].name == "a"
        assert topo.nodes[1].position == (1.0, 1.0)

    def test_default_node_names(self):
        topo = Topology(np.zeros((3, 3)))
        assert [n.name for n in topo.nodes] == ["n0", "n1", "n2"]

    def test_mismatched_metadata_lengths(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 2)), positions=[(0, 0)])
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 2)), names=["only-one"])

    def test_constructor_copies_its_input(self):
        matrix = square_matrix([[0.9, 0.5], [0.5, 0]])
        topo = Topology(matrix)
        matrix[0, 1] = 0.1
        assert topo.delivery(0, 1) == 0.5
        assert matrix[0, 0] == 0.9  # the caller's diagonal is left alone
        assert Topology([[0, 1], [1, 0]]).delivery(0, 1) == 1.0  # list, int input


class TestFromOwned:
    def test_keeps_the_array_and_zeroes_its_diagonal(self):
        matrix = square_matrix([[0.9, 0.5], [0.5, 0.9]])
        topo = Topology.from_owned(matrix, positions=[(0, 0), (1, 1)], names=["a", "b"])
        assert np.shares_memory(topo.delivery_view(), matrix)
        assert matrix[0, 0] == matrix[1, 1] == 0.0
        assert topo.delivery(0, 1) == 0.5
        assert [node.name for node in topo.nodes] == ["a", "b"]

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros(4),
                                        square_matrix([[0, 1.5], [0.5, 0]]),
                                        square_matrix([[0, -0.1], [0.5, 0]])])
    def test_rejects_what_the_constructor_rejects(self, matrix):
        with pytest.raises(ValueError):
            Topology(matrix)
        with pytest.raises(ValueError):
            Topology.from_owned(matrix.copy())

    def test_empty_topology(self):
        assert Topology.from_owned(np.zeros((0, 0))).node_count == 0


def test_mesh_holds_one_matrix_and_its_control_view_none():
    """Building a mesh allocates one N×N float64; its probe-free control view
    and the view's link rows hold O(links).  On a mesh with a tenth of its
    pairs linked (the kilonode density at 400 nodes) that stays well under
    one matrix, which a dense copy anywhere on the way could not."""
    count = 400
    matrix_bytes = count * count * 8
    # Warm-up: the first run imports what numpy loads lazily.
    link_rows(probe_estimated_topology(random_geometric(node_count=4), probe_count=0))
    tracemalloc.start()
    try:
        mesh = random_geometric(node_count=count, area=595.0, seed=21)
        _, mesh_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        link_rows(probe_estimated_topology(mesh, probe_count=0))
        held, view_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.link_table().receivers.size < 0.15 * count * (count - 1)
    assert mesh_peak < 1.5 * matrix_bytes
    assert held - before < 0.75 * matrix_bytes
    assert view_peak - before < matrix_bytes


class TestLinkView:
    """The control plane's read-only view: nodes and one link table."""

    @pytest.fixture
    def topo(self):
        return Topology(square_matrix([[0, 0.5, 0.0], [0.25, 0, 0.75], [0.0, 1.0, 0]]),
                        positions=[(0, 0), (1, 0), (2, 0)], names=["a", "b", "c"])

    def test_reads_as_the_matrix_it_came_from(self, topo):
        view = probe_estimated_topology(topo, optimism_exponent=1.0, probe_count=0)
        assert type(view) is LinkView
        assert view.node_count == 3 and [node.name for node in view.nodes] == ["a", "b", "c"]
        assert view.node_positions() == topo.node_positions()
        assert (view.delivery(1, 2), view.delivery(0, 2), view.delivery(2, 2)) == (0.75, 0, 0)
        assert view.delivery_matrix().tobytes() == topo.delivery_matrix().tobytes()
        table = view.link_table()
        assert table.indptr.tolist() == [0, 1, 3, 4]
        assert table.receivers.tolist() == [1, 0, 2, 1]
        assert table.senders().tolist() == [0, 1, 1, 2]

    def test_has_no_dense_or_writing_accessor(self, topo):
        view = probe_estimated_topology(topo, probe_count=0)
        assert not hasattr(view, "delivery_view") and not hasattr(view, "set_delivery")
        for array in view.link_table():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_topology_table_follows_set_delivery(self, topo):
        first = topo.link_table()
        assert first is topo.link_table()
        topo.set_delivery(0, 2, 0.5)
        assert topo.link_table().receivers.tolist() == [1, 2, 0, 2, 1]


class TestAccessors:
    def test_loss_matrix_diagonal_is_one(self):
        topo = Topology(square_matrix([[0, 0.8], [0.8, 0]]))
        eps = topo.loss_matrix()
        assert eps[0, 0] == 1.0
        assert eps[0, 1] == pytest.approx(0.2)

    def test_neighbors_and_links(self):
        topo = Topology(square_matrix([[0, 0.8, 0.0], [0.8, 0, 0.3], [0.0, 0.3, 0]]))
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(1) == [0, 2]
        links = topo.links(threshold=0.5)
        assert (0, 1, 0.8) in links and (1, 0, 0.8) in links
        assert all(p > 0.5 for _, _, p in links)

    def test_set_delivery(self):
        topo = Topology(np.zeros((3, 3)))
        topo.set_delivery(0, 2, 0.4, symmetric=True)
        assert topo.delivery(0, 2) == 0.4
        assert topo.delivery(2, 0) == 0.4
        with pytest.raises(ValueError):
            topo.set_delivery(0, 0, 0.5)
        with pytest.raises(ValueError):
            topo.set_delivery(0, 1, 1.5)

    def test_delivery_matrix_is_a_copy(self):
        topo = Topology(square_matrix([[0, 0.8], [0.8, 0]]))
        matrix = topo.delivery_matrix()
        matrix[0, 1] = 0.0
        assert topo.delivery(0, 1) == 0.8

    def test_delivery_view_is_read_only_and_live(self):
        topo = Topology(square_matrix([[0, 0.8], [0.8, 0]]))
        view = topo.delivery_view()
        with pytest.raises(ValueError, match="read-only"):
            view[0, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            view[0][1] = 0.0  # rows of the view are read-only too
        assert topo.delivery(0, 1) == 0.8
        topo.set_delivery(0, 1, 0.5)
        assert view[0, 1] == 0.5  # no copy: the view tracks the topology
        assert np.array_equal(view, topo.delivery_matrix())

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.3, 1.0])
    def test_neighbors_and_links_match_the_per_pair_scan(self, threshold):
        rng = np.random.default_rng(4)
        matrix = rng.random((9, 9))
        matrix[rng.random((9, 9)) < 0.4] = 0.0
        topo = Topology(matrix)
        count = topo.node_count
        expected_links = [(i, j, topo.delivery(i, j))
                          for i in range(count) for j in range(count)
                          if i != j and topo.delivery(i, j) > threshold]
        links = topo.links(threshold)
        assert links == expected_links
        assert all(type(i) is int and type(j) is int and type(p) is float
                   for i, j, p in links)
        for node in range(count):
            assert topo.neighbors(node, threshold) == [
                j for i, j, _ in expected_links if i == node]

    def test_average_loss_rate(self):
        topo = Topology(square_matrix([[0, 0.8, 0], [0.8, 0, 0.6], [0, 0.6, 0]]))
        assert topo.average_loss_rate() == pytest.approx(0.3)
        empty = Topology(np.zeros((2, 2)))
        assert empty.average_loss_rate() == 0.0


class TestConnectivity:
    def test_connected_chain(self):
        topo = Topology(square_matrix([[0, 0.9, 0], [0.9, 0, 0.9], [0, 0.9, 0]]))
        assert topo.connectivity_check()

    def test_disconnected(self):
        topo = Topology(square_matrix([[0, 0.9, 0], [0.9, 0, 0], [0, 0, 0]]))
        assert not topo.connectivity_check()

    def test_one_way_link_is_not_strongly_connected(self):
        matrix = np.zeros((2, 2))
        matrix[0, 1] = 0.9
        assert not Topology(matrix).connectivity_check()


class TestSampling:
    def test_sample_receivers_respects_probabilities(self, rng):
        topo = Topology(square_matrix([[0, 1.0, 0.0], [1.0, 0, 0], [0.0, 0, 0]]))
        for _ in range(20):
            receivers = topo.sample_receivers(0, rng)
            assert receivers == [1]

    def test_sample_receivers_statistics(self):
        topo = Topology(square_matrix([[0, 0.5], [0.5, 0]]))
        rng = np.random.default_rng(0)
        hits = sum(1 in topo.sample_receivers(0, rng) for _ in range(4000))
        assert 0.45 < hits / 4000 < 0.55

    def test_subtopology(self):
        matrix = square_matrix([[0, 0.8, 0.1], [0.8, 0, 0.5], [0.1, 0.5, 0]])
        topo = Topology(matrix, names=["a", "b", "c"])
        sub = topo.subtopology([0, 2])
        assert sub.node_count == 2
        assert sub.delivery(0, 1) == 0.1
        assert sub.nodes[1].name == "c"


def test_node_default_name():
    assert Node(node_id=7).name == "n7"
