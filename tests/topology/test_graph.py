"""Tests for the Topology data model."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.experiments.runner import RunConfig, run_single_flow
from repro.sim.channels import GilbertElliott
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium import WirelessMedium
from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import random_geometric
from repro.topology.graph import LinkTable, LinkView, Node, Topology
from repro.topology.mobility import MarkovLinkChurn, RandomWaypoint


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


class TestFromLinks:
    @staticmethod
    def table():
        return LinkTable(np.array([0, 1, 2]), np.array([1, 0]), np.array([0.5, 0.25]))

    def test_keeps_the_table(self):
        table = self.table()
        topo = Topology.from_links(table, positions=[(0, 0), (1, 1)], names=["a", "b"])
        assert topo.link_table() is table
        assert (topo.delivery(0, 1), topo.delivery(1, 0), topo.delivery(0, 0)) == (0.5, 0.25, 0)
        assert [node.name for node in topo.nodes] == ["a", "b"]
        assert topo.delivery_matrix().tolist() == [[0, 0.5], [0.25, 0]]

    def test_the_adopted_arrays_are_read_only(self):
        table = self.table()
        topo = Topology.from_links(table)
        with pytest.raises(ValueError, match="read-only"):
            table.delivery[0] = 0.75
        assert topo.delivery(0, 1) == 0.5

    def test_rejects_out_of_range_probabilities(self):
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError):
                Topology.from_links(LinkTable(np.array([0, 1, 1]), np.array([1]),
                                              np.array([bad])))

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros(4),
                                        square_matrix([[0, 1.5], [0.5, 0]]),
                                        square_matrix([[0, -0.1], [0.5, 0]])])
    def test_constructor_rejects(self, matrix):
        with pytest.raises(ValueError):
            Topology(matrix)

    def test_empty_topology(self):
        assert Topology(np.zeros((0, 0))).node_count == 0


def _arrays(value) -> list[np.ndarray]:
    """Every numpy array reachable from ``value``: attributes, containers
    and the values derived from it."""
    found, seen, stack = [], set(), [value]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float, type)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return found


def test_static_mesh_holds_no_matrix():
    """A generated mesh is its links: no N×N array is reachable from it,
    before or after a MORE flow ran over it.  On the kilonode density at
    400 nodes the traced peak of the build, and what the flow leaves held
    on top of the mesh (its receiver-major index, the medium's sense rows
    and plans), each stay under half of one float64 matrix, which a dense
    copy anywhere on the way would exceed."""
    count = 400
    half_matrix = 0.5 * count * count * 8
    config = RunConfig(total_packets=32, batch_size=16, coding_payload_size=16,
                       max_duration=60.0, max_relays=10, seed=1)
    # Warm-up: the first run imports what numpy and the run path load lazily.
    run_single_flow(random_geometric(node_count=6, seed=2), "MORE", 0, 5, config=config)
    tracemalloc.start()
    try:
        mesh = random_geometric(node_count=count, area=595.0, seed=21)
        built, build_peak = tracemalloc.get_traced_memory()
        assert all(array.ndim == 1 for array in _arrays(mesh))
        result = run_single_flow(mesh, "MORE", 200, 0, config=config)
        gc.collect()  # the simulator's own reference cycles are not held
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.completed and mesh.derived(("medium",), dict)
    assert mesh.link_table().receivers.size < 0.15 * count * (count - 1)
    assert build_peak < half_matrix
    assert held - built < half_matrix
    assert all(array.ndim == 1 for array in _arrays(mesh))


def _frames(medium: WirelessMedium, count: int) -> None:
    """Sixty frames from spread-out senders, 5 ms apart."""
    for step in range(60):
        frame = Frame(sender=step * 7 % count, receiver=BROADCAST, kind=FrameKind.DATA,
                      flow_id=1, size_bytes=1500)
        medium.complete(medium.begin(frame, now=step * 0.005, airtime=0.002),
                        now=step * 0.005 + 0.002)


def test_dynamic_models_hold_no_matrix():
    """Dynamic link state is links too.  On the kilonode density at 400
    nodes a bound Gilbert-Elliott channel, and a churn process after its
    first epoch, each hold less than half of one float64 matrix of traced
    memory, which one dense array of their state would exceed; over a
    medium that ran frames across epochs, no N×N array is reachable from
    its channel model or its mobility process, and a waypoint process
    holds one epoch however many have passed."""
    count = 400
    half_matrix = 0.5 * count * count * 8
    mesh = random_geometric(node_count=count, area=595.0, seed=21)

    def bound_channel(topology):
        model = GilbertElliott(seed=1)
        model.bind(topology)
        return model

    def first_epoch(topology):
        model = MarkovLinkChurn(seed=1)
        model.bind(topology)
        model.topology_at(0)
        return model

    for build in (bound_channel, first_epoch):
        build(random_geometric(node_count=6, seed=2))  # warm-up: lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            model = build(mesh)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < half_matrix, (build.__name__, held)
        del model
    # 200 epochs (10 s at 50 ms) retain what the first five did, give or take
    # a few epochs' coordinates: the held epoch's links drift as the nodes
    # gather, and numpy's small-buffer cache fills.
    waypoint, coordinates = RandomWaypoint(seed=1, epoch_length=0.05), count * 3 * 8
    waypoint.bind(mesh)
    tracemalloc.start()
    try:
        for epoch in range(200):
            waypoint.topology_at(epoch)
            if epoch == 4:
                gc.collect()
                early, _ = tracemalloc.get_traced_memory()
        gc.collect()
        late, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert late - early < 8 * coordinates, (early, late)
    for mobility in (MarkovLinkChurn(seed=1, epoch_length=0.05),
                     RandomWaypoint(seed=1, epoch_length=0.05, speed_min=20.0, speed_max=40.0)):
        medium = WirelessMedium(mesh, np.random.default_rng(1),
                                model=GilbertElliott(seed=1, mean_good_time=0.02,
                                                     mean_bad_time=0.01),
                                mobility=mobility)
        _frames(medium, count)
        assert medium.effective_topology(0.32) is mobility.topology_at(6)
        assert all(array.ndim == 1 or array.shape == (count, 3)
                   for array in _arrays(medium.model) + _arrays(medium.mobility))


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

    def test_a_hand_built_matrix_becomes_links(self):
        matrix = square_matrix([[0.9, 0.8, 0.0], [0.8, 0, 0.3], [0.0, 0.3, 0]])
        topo = Topology(matrix)
        assert not hasattr(topo, "delivery_view") and not hasattr(Topology, "from_owned")
        assert all(array.ndim == 1 for array in _arrays(topo))
        table = topo.link_table()
        assert (table.indptr.tolist(), table.receivers.tolist()) == ([0, 1, 3, 4], [1, 0, 2, 1])
        assert topo.delivery_matrix().tolist() == [[0, 0.8, 0], [0.8, 0, 0.3], [0, 0.3, 0]]
        with pytest.raises(ValueError, match="read-only"):
            table.delivery[0] = 0.0

    def test_incoming_is_the_receiver_major_index(self):
        topo = Topology(square_matrix([[0, 0.5, 0.0], [0.25, 0, 0.75], [0.6, 1.0, 0]]))
        incoming = topo.incoming()
        assert incoming is topo.incoming()
        assert incoming.indptr.tolist() == [0, 2, 4, 5]
        assert incoming.links.tolist() == [1, 3, 0, 4, 2]
        table = topo.link_table()
        assert table.sender_of(incoming.links).tolist() == [1, 2, 0, 2, 1]
        assert table.receivers[incoming.links].tolist() == [0, 0, 1, 1, 2]
        assert table.delivery[incoming.links].tolist() == [0.25, 0.6, 0.5, 1.0, 0.75]
        with pytest.raises(ValueError, match="read-only"):
            incoming.links[0] = 0

    def test_the_control_view_shares_the_index(self):
        topo = Topology(square_matrix([[0, 0.5, 0.0], [0.25, 0, 0.75], [0.6, 1.0, 0]]))
        for probes in (0, 10):
            view = probe_estimated_topology(topo, probe_count=probes)
            assert view.incoming() is topo.incoming()

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
        for array in topo.link_table():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_node_default_name():
    assert Node(node_id=7).name == "n7"
