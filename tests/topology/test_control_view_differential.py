"""The sparse control plane against the dense one it replaced, bit for bit.

The control view holds one link table (:class:`repro.topology.graph.LinkView`)
and every run-path reader works from it: the estimates, the link rows, the
participants' block of Algorithm 1 / Eq. 3.3 and the dead-node mask.  The
oracle below is the dense form each of those had — the estimate and the
mask over an N×N matrix, the link rows by ``np.nonzero`` over the
transposed usable mask, the block as the matrix's participants submatrix —
kept test-local.  Distances, next hops, plans and paths computed over the
two must agree exactly, on the testbed, on the 200-node sweep mesh and on a
400-node mesh at kilonode density.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.refresh import mask_dead_nodes
from repro.metrics import credits, eotx, etx
from repro.metrics.credits import forwarding_plan
from repro.metrics.eotx import eotx_dijkstra
from repro.metrics.etx import LINK_THRESHOLD, LinkRows, best_path, link_rows
from repro.topology.estimation import DEFAULT_OPTIMISM_EXPONENT, probe_estimated_topology
from repro.topology.generator import indoor_testbed, random_geometric
from repro.topology.graph import LinkView, Topology

SEED = (5, 2)

# --------------------------------------------------------------------------- #
# The dense forms, as they read before the control plane became a link table
# --------------------------------------------------------------------------- #


def dense_estimate(matrix: np.ndarray, exponent: float, probes: int) -> np.ndarray:
    estimated = matrix ** exponent
    if probes > 0:
        links = estimated > 0.0
        rng = np.random.default_rng(SEED)
        estimated[links] = rng.binomial(probes, estimated[links]) / probes
    return estimated


def dense_mask(matrix: np.ndarray, dead: frozenset[int]) -> np.ndarray:
    delivery = matrix.copy()
    indices = sorted(dead)
    delivery[indices, :] = 0.0
    delivery[:, indices] = 0.0
    return delivery


def dense_link_rows(topology: LinkView, ack_aware: bool = False) -> LinkRows:
    delivery = topology.delivery_matrix()
    usable = delivery > LINK_THRESHOLD
    if ack_aware:
        usable &= usable.T
    receivers, senders = np.nonzero(usable.T)
    forward = delivery[senders, receivers]
    if ack_aware:
        with np.errstate(divide="ignore"):
            cost = 1.0 / (forward * delivery[receivers, senders])
    else:
        cost = 1.0 / forward
    indptr = np.zeros(topology.node_count + 1, dtype=np.intp)
    np.cumsum(np.bincount(receivers, minlength=topology.node_count), out=indptr[1:])
    return LinkRows(indptr, senders, forward, cost)


def dense_block(topology: LinkView, order: list[int]) -> np.ndarray:
    return topology.delivery_matrix()[np.ix_(order, order)]


# --------------------------------------------------------------------------- #
# What the control plane computes from a view
# --------------------------------------------------------------------------- #


def _bits(array: np.ndarray) -> tuple[str, bytes]:
    return str(array.dtype), array.tobytes()


def _outcome(compute):
    try:
        return compute()
    except ValueError as error:
        return f"ValueError: {error}"


def control_plane(view: LinkView, pairs: list[tuple[int, int]]) -> dict:
    """Every run-path product of ``view`` for ``pairs``, as comparable values."""
    found: dict = {}
    for ack_aware in (False, True):
        found["link_rows", ack_aware] = [_bits(array) for array in
                                         etx.link_rows(view, ack_aware)]
    for destination in sorted({node for pair in pairs for node in pair}):
        distances, next_hop = etx._routes_to(view, destination, False)
        found["etx", destination] = _bits(distances), _bits(next_hop)
        found["eotx", destination] = _bits(eotx_dijkstra(view, destination))
    for source, destination in pairs:
        found["path", source, destination] = _outcome(
            lambda: best_path(view, source, destination))
        found["path", destination, source] = _outcome(
            lambda: best_path(view, destination, source))
        for metric in ("etx", "eotx"):
            for cap in (None, 10):
                plan = _outcome(lambda: forwarding_plan(view, source, destination,
                                                        metric=metric,
                                                        max_forwarders=cap))
                if not isinstance(plan, str):
                    plan = (plan.participants, _bits(plan.distances), _bits(plan.z),
                            _bits(plan.load), _bits(plan.tx_credit))
                found["plan", source, destination, metric, cap] = plan
    return found


def dense_control_plane(view: Topology, pairs: list[tuple[int, int]],
                        monkeypatch: pytest.MonkeyPatch) -> dict:
    """:func:`control_plane` with every link-table reader swapped for its dense form."""
    monkeypatch.setattr(etx, "link_rows", dense_link_rows)
    monkeypatch.setattr(eotx, "link_rows", dense_link_rows)
    monkeypatch.setattr(credits, "_participant_block", dense_block)
    found = control_plane(view, pairs)
    monkeypatch.undo()
    return found


# --------------------------------------------------------------------------- #
# Meshes
# --------------------------------------------------------------------------- #


MESHES = {
    "testbed": lambda: indoor_testbed(),
    # mesh_seed_sweep's mesh.
    "mesh_200": lambda: random_geometric(node_count=200, area=420.0, seed=11),
    # The 1000-node kilonode density (area 940 m) at 400 nodes.
    "mesh_400": lambda: random_geometric(node_count=400, area=595.0, seed=21),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request) -> Topology:
    return MESHES[request.param]()


def _pairs(mesh: Topology, count: int = 4) -> list[tuple[int, int]]:
    rng = np.random.default_rng(mesh.node_count)
    nodes = rng.choice(mesh.node_count, size=2 * count, replace=False).tolist()
    return list(zip(nodes[::2], nodes[1::2]))


def _dense_view(matrix: np.ndarray, mesh: Topology) -> Topology:
    return Topology(matrix, positions=mesh.node_positions(),
                    names=[node.name for node in mesh.nodes])


@pytest.mark.parametrize("probes", [0, 100])
def test_control_view_plans_as_the_dense_one(mesh, probes, monkeypatch):
    view = probe_estimated_topology(mesh, DEFAULT_OPTIMISM_EXPONENT, probes, SEED)
    oracle = _dense_view(dense_estimate(mesh.delivery_matrix(), DEFAULT_OPTIMISM_EXPONENT,
                                        probes), mesh)
    assert view.delivery_matrix().tobytes() == oracle.delivery_matrix().tobytes()
    pairs = _pairs(mesh)
    assert control_plane(view, pairs) == dense_control_plane(oracle, pairs, monkeypatch)


@pytest.mark.parametrize("probes", [0, 100])
def test_masked_view_plans_as_the_dense_mask(mesh, probes, monkeypatch):
    pairs = _pairs(mesh)
    # Kill the first relay of every multi-hop best path, and one node no
    # pair uses.
    paths = [_outcome(lambda: best_path(mesh, *pair)) for pair in pairs]
    dead = {path[1] for path in paths if isinstance(path, list) and len(path) > 2}
    dead.add(next(node for node in range(mesh.node_count)
                  if node not in {end for pair in pairs for end in pair} | dead))
    dead = frozenset(dead)
    masked = mask_dead_nodes(mesh, dead)
    dense = dense_mask(mesh.delivery_matrix(), dead)
    assert masked.delivery_matrix().tobytes() == dense.tobytes()
    view = probe_estimated_topology(masked, DEFAULT_OPTIMISM_EXPONENT, probes, SEED)
    oracle = _dense_view(dense_estimate(dense, DEFAULT_OPTIMISM_EXPONENT, probes), mesh)
    assert view.delivery_matrix().tobytes() == oracle.delivery_matrix().tobytes()
    assert control_plane(view, pairs) == dense_control_plane(oracle, pairs, monkeypatch)


def test_participant_block_is_the_dense_submatrix(mesh):
    view = probe_estimated_topology(mesh, probe_count=100, seed=SEED)
    for source, destination in _pairs(mesh):
        order = forwarding_plan(view, source, destination, prune=False).participants
        assert (credits._participant_block(view, order).tobytes()
                == dense_block(view, order).tobytes())


def test_link_rows_read_the_table_not_a_matrix(mesh):
    """The view has no dense accessor for a run-path reader to fall back on."""
    view = probe_estimated_topology(mesh, probe_count=0)
    assert not hasattr(view, "delivery_view") and not hasattr(view, "set_delivery")
    assert link_rows(view) is link_rows(view)
