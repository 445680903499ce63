"""Tests for topology generators, including the synthetic testbed calibration."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.etx import best_path, etx_to_destination
from repro.topology.generator import (
    chain,
    cost_gap_topology,
    diamond,
    grid,
    indoor_testbed,
    random_geometric,
    random_mesh,
    two_hop_relay,
)
from repro.experiments.workloads import reachable_pairs
from repro.topology import generator
from repro.topology.graph import Topology, link_table_of


def _strongly_connected(topology) -> bool:
    """Every node reaches every other over links delivering above 5%."""
    return bool(generator._strong_component(topology.link_table(), 0.05).all())


def _dense(links) -> np.ndarray:
    """A generator's link table as the N×N matrix it stands for."""
    return Topology.from_links(links).delivery_matrix()


class TestStrongComponent:
    """The one connectivity walk of the generators."""

    @staticmethod
    def mask(links, count=3):
        usable = np.zeros((count, count))
        for sender, receiver in links:
            usable[sender, receiver] = 1.0
        return link_table_of(usable), 0.5

    def test_connected_chain(self):
        assert generator._strong_component(*self.mask([(0, 1), (1, 0), (1, 2), (2, 1)])).all()

    def test_disconnected(self):
        component = generator._strong_component(*self.mask([(0, 1), (1, 0)]))
        assert component.tolist() == [True, True, False]

    def test_one_way_link_is_not_strongly_connected(self):
        assert generator._strong_component(*self.mask([(0, 1)], 2)).tolist() == [True, False]
        # Reached from node 0 but not reaching it, and the reverse.
        assert generator._strong_component(*self.mask([(0, 1), (1, 2), (2, 1)])).tolist() \
            == [True, False, False]
        assert generator._strong_component(*self.mask([(1, 0), (1, 2), (2, 1)])).tolist() \
            == [True, False, False]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda count: st.lists(
        st.lists(st.booleans(), min_size=count, max_size=count),
        min_size=count, max_size=count)))
    def test_matches_the_per_node_search(self, rows):
        """Node 0's strongly connected component, as a search that follows
        one link at a time forward and then backward finds it."""
        usable = np.array(rows, dtype=bool)

        def search(links):
            reached, stack = {0}, [0]
            while stack:
                node = stack.pop()
                for nxt in np.flatnonzero(links[node]).tolist():
                    if nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            return reached

        expected = search(usable) & search(usable.T)
        component = generator._strong_component(link_table_of(usable.astype(float)), 0.5)
        assert set(np.flatnonzero(component).tolist()) == expected


class TestTwoHopRelay:
    def test_matches_figure_1_1(self):
        topo = two_hop_relay()
        assert topo.node_count == 3
        assert topo.delivery(0, 1) == 1.0
        assert topo.delivery(1, 2) == 1.0
        assert topo.delivery(0, 2) == pytest.approx(0.49)
        # Section 2.1.1: path ETX 2 vs direct ETX 1/0.49.
        etx = etx_to_destination(topo, 2)
        assert etx[0] == pytest.approx(2.0)


class TestChain:
    def test_structure(self):
        topo = chain(4, link_delivery=0.8)
        assert topo.node_count == 5
        assert topo.delivery(0, 1) == 0.8
        assert topo.delivery(0, 2) == 0.0

    def test_skip_links(self):
        topo = chain(4, link_delivery=0.8, skip_delivery=0.2)
        assert topo.delivery(0, 2) == 0.2
        assert topo.delivery(2, 4) == 0.2

    def test_invalid(self):
        with pytest.raises(ValueError):
            chain(0)


class TestDiamond:
    def test_structure(self):
        topo = diamond(0.5, 0.6, relay_count=3)
        destination = topo.node_count - 1
        assert topo.node_count == 5
        for relay in (1, 2, 3):
            assert topo.delivery(0, relay) == 0.5
            assert topo.delivery(relay, destination) == 0.6
        assert topo.delivery(0, destination) == 0.0

    def test_direct_link(self):
        topo = diamond(0.5, 0.5, relay_count=2, direct=0.1)
        assert topo.delivery(0, topo.node_count - 1) == 0.1

    def test_invalid(self):
        with pytest.raises(ValueError):
            diamond(relay_count=0)


class TestGrid:
    def test_shape_and_links(self):
        topo = grid(3, 4, link_delivery=0.7, diagonal_delivery=0.0)
        assert topo.node_count == 12
        assert topo.delivery(0, 1) == 0.7
        assert topo.delivery(0, 4) == 0.7
        assert topo.delivery(0, 5) == 0.0

    def test_diagonals(self):
        topo = grid(2, 2, link_delivery=0.7, diagonal_delivery=0.3)
        assert topo.delivery(0, 3) == 0.3


class TestRandomMesh:
    def test_connected_and_symmetric(self):
        topo = random_mesh(10, density=0.5, seed=1)
        assert _strongly_connected(topo)
        matrix = topo.delivery_matrix()
        assert np.allclose(matrix, matrix.T)

    def test_deterministic(self):
        a = random_mesh(8, density=0.4, seed=5)
        b = random_mesh(8, density=0.4, seed=5)
        assert np.array_equal(a.delivery_matrix(), b.delivery_matrix())

    @pytest.mark.parametrize("params, problem", [
        ({"node_count": 1}, "node_count must be at least 2"),
        ({"density": 1.5}, "density must lie in"),
        ({"density": 0.0}, "density must lie in"),
        ({"min_delivery": 0.8, "max_delivery": 0.5}, "min_delivery <= max_delivery"),
        ({"min_delivery": -0.1}, "0 <= min_delivery"),
        ({"max_delivery": 1.5}, "max_delivery <= 1"),
    ])
    def test_rejects_out_of_range_input(self, params, problem):
        """Once a single node was a mesh and 1.5 a density; a bound pair
        upside down died in numpy."""
        with pytest.raises(ValueError, match="bad parameter for topology 'random_mesh'") \
                as raised:
            random_mesh(**{"node_count": 6, **params})
        assert problem in str(raised.value)

    def test_a_mesh_that_cannot_connect_is_one_error(self):
        with pytest.raises(ValueError, match="no connected mesh in 200 attempts"):
            random_mesh(12, density=0.01)


@pytest.mark.parametrize("build, problem", [
    (lambda: random_geometric(16, float("inf")),
     "'random_geometric': area must be positive and finite, got inf"),
    (lambda: random_geometric(16, float("nan")), "area must be positive and finite, got nan"),
    (lambda: indoor_testbed(floor_width=float("inf")),
     "'indoor_testbed': floor_width must be positive and finite, got inf"),
    (lambda: indoor_testbed(floor_depth=float("inf")), "floor_depth must be positive and finite"),
    (lambda: random_geometric(16, 120.0, seed=-1),
     "'random_geometric': seed must not be negative, got -1"),
    (lambda: indoor_testbed(seed=-1), "'indoor_testbed': seed must not be negative"),
    (lambda: random_mesh(6, seed=-1), "'random_mesh': seed must not be negative"),
], ids=["area_inf", "area_nan", "floor_width_inf", "floor_depth_inf",
        "random_geometric_seed", "indoor_testbed_seed", "random_mesh_seed"])
def test_rejects_infinite_extents_and_negative_seeds(build, problem):
    """An infinite extent died in numpy's ``uniform`` ("high - low range
    exceeds valid bounds"), a negative seed in ``default_rng`` ("expected
    non-negative integer"), neither naming the parameter."""
    with pytest.raises(ValueError, match="bad parameter for topology") as raised:
        build()
    assert problem in str(raised.value)


class TestCostGapTopology:
    def test_structure(self):
        topo = cost_gap_topology(bridge_delivery=0.1, branch_count=4)
        destination = topo.node_count - 1
        assert topo.node_count == 8
        assert topo.delivery(0, 1) == 0.1       # src -> A
        assert topo.delivery(0, 2) == 1.0        # src -> B
        assert topo.delivery(1, destination) == 1.0
        for branch in range(4):
            assert topo.delivery(2, 3 + branch) == 0.1
            assert topo.delivery(3 + branch, destination) == 1.0

    def test_etx_ranks_b_no_closer_than_source(self):
        """The property Proposition 6 relies on: ETX-order discards B."""
        topo = cost_gap_topology(bridge_delivery=0.1, branch_count=8)
        destination = topo.node_count - 1
        etx = etx_to_destination(topo, destination)
        assert etx[2] >= etx[0]  # B is not closer than the source under ETX

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cost_gap_topology(bridge_delivery=0.0)
        with pytest.raises(ValueError):
            cost_gap_topology(bridge_delivery=1.0)
        with pytest.raises(ValueError):
            cost_gap_topology(branch_count=0)


class TestIndoorTestbed:
    def test_size_and_connectivity(self, testbed):
        assert testbed.node_count == 20
        assert _strongly_connected(testbed)
        assert testbed.nodes[0].position != ()

    def test_symmetric_links(self, testbed):
        matrix = testbed.delivery_matrix()
        assert np.allclose(matrix, matrix.T)

    def test_link_statistics_match_paper(self, testbed):
        """Loss rates of links on best paths: 0-60% range, average about 27%
        (Section 4.1(a)); we accept a calibrated band around those values."""
        losses = []
        hops = []
        for source, destination in reachable_pairs(testbed)[::5]:
            path = best_path(testbed, source, destination)
            hops.append(len(path) - 1)
            losses.extend(1 - testbed.delivery(a, b) for a, b in zip(path[:-1], path[1:]))
        mean_loss = float(np.mean(losses))
        assert 0.15 <= mean_loss <= 0.45
        assert max(losses) <= 0.85
        assert 1 <= max(hops) <= 7
        assert min(hops) == 1

    def test_no_perfect_links(self, testbed):
        """Urban 802.11 links always lose some frames (ambient interference)."""
        assert testbed.delivery_matrix().max() <= 0.90 + 1e-9

    def test_deterministic_for_seed(self):
        a = indoor_testbed(seed=3)
        b = indoor_testbed(seed=3)
        assert np.array_equal(a.delivery_matrix(), b.delivery_matrix())

    def test_different_seed_differs(self):
        a = indoor_testbed(seed=3)
        b = indoor_testbed(seed=4)
        assert not np.array_equal(a.delivery_matrix(), b.delivery_matrix())

    def test_patched_layout_is_connected(self):
        """``random_geometric(30, 400.0, 43)`` leaves two nodes out; the
        patch joins each with a symmetric mid-quality link."""
        topo = random_geometric(30, 400.0, 43)
        rng = np.random.default_rng(43)
        for _ in range(30):
            rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)
        unpatched = generator._pairwise_links(topo.node_positions(), rng)
        assert not generator._strong_component(unpatched, 0.05).all()
        assert _strongly_connected(topo)
        delivery = topo.delivery_matrix()
        senders, receivers = np.nonzero(delivery != _dense(unpatched))
        assert len(senders) == 4 and sorted(zip(senders, receivers)) == \
            sorted(zip(receivers, senders))
        patched = delivery[senders, receivers]
        assert ((0.4 <= patched) & (patched < 0.7)).all()

    def test_smaller_testbed_still_connected(self):
        topo = indoor_testbed(node_count=10, floors=2, seed=11)
        assert topo.node_count == 10
        assert _strongly_connected(topo)


def _digest(delivery: np.ndarray, positions=None) -> str:
    digest = hashlib.sha256(delivery.tobytes())
    if positions is not None:
        digest.update(np.asarray(positions, dtype=float).tobytes())
    return digest.hexdigest()


class TestGeneratorGoldens:
    """A seed names one topology, bit for bit.

    Digests of the delivery matrix and positions, recorded when every node
    took two scalar ``uniform`` draws and every link, in ``(i, j > i)``
    order, one scalar ``normal`` and one ``uniform``.  The generators now
    read those words in blocks — the positions in one ``uniform(size=…)``
    call, each row's links through ``repro.rng.normal_uniform_pairs`` — and
    must still give these bytes.
    """

    @pytest.mark.parametrize("build, expected", [
        (lambda: indoor_testbed(floors=3, seed=7),
         "e20fa606a72ea0a63257a7a0d565789325bf575a1601a2eacde65d38df90ab7a"),
        (lambda: random_geometric(50, 220.0, 1),
         "2d17bb12bc624221d2b8c1d11690e3a039c6db000937a9359f1fe1073cdaf9a4"),
        (lambda: random_geometric(200, 420.0, 11),
         "a2d37c996f6bdf97d6d5fa3476f3d99c14ac7b5202a817507091817ffcad2010"),
        # The kilonode mesh, recorded before the draws moved to the
        # generator's argument-free entry points.
        (lambda: random_geometric(1000, 940.0, 21),
         "2e4816b3555deea957cd9a2bf767f854a649839731ddc6e5fb3ed8924d9b88c8"),
        # A layout ``_ensure_connected`` patches (two links), recorded while
        # the patch still wrote through the built topology.
        (lambda: random_geometric(30, 400.0, 43),
         "539c2581363e4a569ddfec05cf5e4e96677b6e7a3b17412ad3df94a0a48ec707"),
    ], ids=["indoor_testbed_s7", "random_geometric_50_s1",
            "random_geometric_200_s11", "random_geometric_1000_s21",
            "random_geometric_30_s43_patched"])
    def test_seeded_topologies_are_pinned(self, build, expected):
        topology = build()
        assert _digest(topology.delivery_matrix(),
                       topology.node_positions()) == expected

    def test_coincident_nodes_deliver_perfectly_and_take_no_draws(self):
        positions = [(0.0, 0.0, 0.0), (10.0, 5.0, 0.0), (10.0, 5.0, 0.0),
                     (30.0, 20.0, 4.0), (55.0, 8.0, 8.0)]
        rng = np.random.default_rng(5)
        delivery = _dense(generator._pairwise_links(positions, rng))
        assert delivery[1, 2] == delivery[2, 1] == 1.0
        assert _digest(delivery) == \
            "4cf21a0631fd563dfc69841af41ceb5ec5a5c337c75948467ebb5a8c3e20b23a"
        # Nine apart pairs, two draws each: the stream sits where the
        # per-pair generator left it.
        assert rng.random() == 0.676689351831066


def _pairwise_delivery_reference(positions, rng: np.random.Generator) -> np.ndarray:
    """The loop ``_pairwise_links`` replaced, draw expression verbatim:
    ``normal(0.0, sigma)`` / ``uniform(0.0, a)`` tuples, one pair per link."""
    coords = np.asarray(positions, dtype=float)
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    count = len(positions)
    delivery = np.zeros((count, count), dtype=float)
    normal, uniform = rng.normal, rng.uniform
    for i in range(count - 1):
        rest = slice(i + 1, count)
        distance = np.hypot(x[i] - x[rest], y[i] - y[rest])
        floors_crossed = np.rint(np.abs(z[i] - z[rest]) / 4.0)
        apart = distance > 0
        draws = np.array([(normal(0.0, generator._SHADOWING_SIGMA_DB),
                           uniform(0.0, generator._AMBIENT_LOSS_MAX))
                          for _ in range(int(apart.sum()))]).reshape(-1, 2)
        margin_db = (generator.path_loss_margin_db(distance[apart])
                     - generator._FLOOR_PENALTY_DB * floors_crossed[apart] + draws[:, 0])
        row = np.ones(distance.shape)
        row[apart] = generator.margin_to_delivery(margin_db,
                                                  ambient_factor=1.0 - draws[:, 1])
        delivery[i, rest] = row
        delivery[rest, i] = row
    return delivery


#: Coordinates on a coarse lattice or anywhere on the floor: lattice points
#: collide, so coincident nodes (which take no draws) turn up in most meshes.
_coordinate = st.one_of(st.sampled_from([0.0, 30.0, 60.0]),
                        st.floats(0.0, 90.0, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda floors: st.lists(
           st.tuples(_coordinate, _coordinate,
                     st.integers(0, floors - 1).map(lambda floor: floor * 4.0)),
           min_size=2, max_size=40)),
       st.integers(0, 2**32 - 1))
def test_pairwise_delivery_matches_the_per_pair_loop(positions, seed):
    """Same bytes out, and the stream left where the loop left it — so
    ``_ensure_connected``'s patch-link draws land where they did."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    links = generator._pairwise_links(positions, rng)
    reference = _pairwise_delivery_reference(positions, reference_rng)
    assert _dense(links).tobytes() == reference.tobytes()
    # Rows list their receivers in ascending order, and only links that deliver.
    assert links.receivers.tolist() == np.nonzero(reference)[1].tolist()
    assert (links.delivery > 0).all()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
