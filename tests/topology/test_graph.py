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

    def test_the_adopted_array_is_read_only(self):
        matrix = square_matrix([[0, 0.5], [0.5, 0]])
        topo = Topology.from_owned(matrix)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 1] = 0.25
        assert topo.delivery(0, 1) == 0.5

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

    def test_an_edited_mesh_is_a_new_topology(self, topo):
        first = topo.link_table()
        edited = topo.delivery_matrix()
        edited[0, 2] = 0.5
        assert Topology(edited).link_table().receivers.tolist() == [1, 2, 0, 2, 1]
        assert topo.link_table() is first
        assert first.receivers.tolist() == [1, 0, 2, 1]


class TestAccessors:
    def test_delivery_matrix_is_a_copy(self):
        topo = Topology(square_matrix([[0, 0.8], [0.8, 0]]))
        matrix = topo.delivery_matrix()
        matrix[0, 1] = 0.0
        assert topo.delivery(0, 1) == 0.8
        assert Topology(matrix).delivery(0, 1) == 0.0

    def test_delivery_view_is_the_read_only_matrix(self):
        topo = Topology(square_matrix([[0, 0.8], [0.8, 0]]))
        view = topo.delivery_view()
        assert view is topo.delivery_view()
        with pytest.raises(ValueError, match="read-only"):
            view[0, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            view[0][1] = 0.0  # rows of the view are read-only too
        assert topo.delivery(0, 1) == 0.8
        assert np.array_equal(view, topo.delivery_matrix())

    def test_repr_counts_the_links(self):
        topo = Topology(square_matrix([[0, 0.8, 0.0], [0.8, 0, 0.3], [0.0, 0.3, 0]]))
        assert repr(topo) == "Topology(nodes=3, links=4)"


class TestImmutable:
    """A mesh's links are fixed when it is built: nothing writes its matrix."""

    def test_has_no_writer_and_no_dense_query(self):
        gone = ("set_delivery", "loss", "loss_matrix", "neighbors", "links",
                "link_loss_rates", "average_loss_rate", "connectivity_check",
                "sample_receivers", "subtopology")
        assert [name for name in gone if hasattr(Topology, name)] == []

    def test_generated_meshes_are_read_only(self):
        topo = random_geometric(node_count=6, seed=2)
        with pytest.raises(ValueError, match="read-only"):
            topo.delivery_view()[0, 1] = 0.5


def test_node_default_name():
    assert Node(node_id=7).name == "n7"
