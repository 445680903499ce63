"""What is derived from a topology is derived once — and never goes stale.

:meth:`repro.topology.graph.Topology.derived` memoises the control plane's
view of a mesh (probe-free control view, link rows, distance vectors,
plans) and :func:`repro.scenarios.build.build_topology` keeps the meshes
themselves.  Sharing is only safe if a mesh's links never change (its
matrix is read-only from construction: an edited mesh is a new one), if
nothing handed out can be written through, and if the mesh cache is keyed
on what the spec *means*.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.orchestrator import run_sweep
from repro.metrics.credits import forwarding_plan
from repro.metrics.eotx import eotx_dijkstra
from repro.metrics.etx import best_path, etx_to_destination, link_rows
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec, build_topology
from repro.scenarios.build import TOPOLOGY_CACHE_SIZE, _built
from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import chain
from repro.topology.graph import Topology


@pytest.fixture
def skip_chain():
    """0 - 1 - 2 - 3 with weak two-hop skip links (a private mesh)."""
    return chain(3, link_delivery=0.7, skip_delivery=0.2)


class TestDerivedOnce:
    def test_same_object_per_mesh(self, skip_chain):
        calls = []
        first = skip_chain.derived("k", lambda: calls.append(1) or np.arange(3.0))
        assert skip_chain.derived("k", lambda: calls.append(1) or np.arange(3.0)) is first
        assert len(calls) == 1
        copy = Topology(skip_chain.delivery_matrix())
        assert copy.derived("k", lambda: calls.append(1) or np.arange(3.0)) is not first
        assert len(calls) == 2

    def test_a_failed_derivation_is_not_remembered(self, skip_chain):
        def fail():
            raise ValueError("no route")
        with pytest.raises(ValueError):
            skip_chain.derived("k", fail)
        assert skip_chain.derived("k", lambda: 7) == 7

    def test_control_plane_functions_share_their_results(self, skip_chain):
        control = probe_estimated_topology(skip_chain, probe_count=0, seed=1)
        assert probe_estimated_topology(skip_chain, probe_count=0, seed=2) is control
        assert probe_estimated_topology(skip_chain, optimism_exponent=0.9,
                                        probe_count=0) is not control
        assert etx_to_destination(control, 3) is etx_to_destination(control, 3)
        assert eotx_dijkstra(control, 3) is eotx_dijkstra(control, 3)
        assert link_rows(control) is link_rows(control)
        assert forwarding_plan(control, 0, 3).z is forwarding_plan(control, 0, 3).z

    def test_sampled_views_are_not_shared(self, skip_chain):
        first = probe_estimated_topology(skip_chain, probe_count=100, seed=1)
        assert probe_estimated_topology(skip_chain, probe_count=100, seed=1) is not first


def _with_link(topology: Topology, sender: int, receiver: int,
               delivery: float) -> Topology:
    """A new mesh: ``topology``'s matrix with one directed link set."""
    matrix = topology.delivery_matrix()
    matrix[sender, receiver] = delivery
    return Topology(matrix)


class TestEditedMeshDerivesItsOwn:
    """A mesh built from an edited matrix derives its own plans, and the
    original keeps its memo."""

    def test_distances_paths_and_plans_follow_the_edit(self, skip_chain):
        assert best_path(skip_chain, 0, 3) == [0, 1, 2, 3]
        before = etx_to_destination(skip_chain, 3)
        plan = forwarding_plan(skip_chain, 0, 3, prune=False)
        assert plan.participants == [3, 2, 1, 0]
        eotx_before = eotx_dijkstra(skip_chain, 3)[0]

        edited = _with_link(skip_chain, 0, 3, 1.0)  # a perfect direct link appears

        assert best_path(edited, 0, 3) == [0, 3]
        after = etx_to_destination(edited, 3)
        assert after[0] == 1.0 < before[0]
        assert eotx_dijkstra(edited, 3)[0] == 1.0 < eotx_before
        rows = link_rows(edited)
        assert rows.senders[rows.indptr[3]:rows.indptr[4]].tolist() == [0, 1, 2]
        replanned = forwarding_plan(edited, 0, 3, prune=False)
        assert replanned.participants == [3, 0]
        assert replanned.z[0] == 1.0

        assert etx_to_destination(skip_chain, 3) is before
        assert forwarding_plan(skip_chain, 0, 3, prune=False).z is plan.z
        assert best_path(skip_chain, 0, 3) == [0, 1, 2, 3]

    def test_control_view_follows_the_edit(self, skip_chain):
        kept = probe_estimated_topology(skip_chain, probe_count=0)
        edited = _with_link(skip_chain, 0, 1, 0.25)
        fresh = probe_estimated_topology(edited, probe_count=0)
        assert fresh is not kept
        assert fresh.delivery(0, 1) == 0.25 ** 0.45
        assert kept.delivery(0, 1) == 0.7 ** 0.45
        assert probe_estimated_topology(skip_chain, probe_count=0) is kept

    def test_the_mesh_cannot_be_written(self, skip_chain):
        plan = forwarding_plan(skip_chain, 0, 3)
        for array in skip_chain.link_table():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert forwarding_plan(skip_chain, 0, 3).z is plan.z
        assert not hasattr(skip_chain, "set_delivery")


class TestHandedOutReadOnly:
    def test_writing_to_a_memoised_array_raises(self, skip_chain):
        plan = forwarding_plan(skip_chain, 0, 3)
        rows = link_rows(skip_chain)
        for array in (etx_to_destination(skip_chain, 3), eotx_dijkstra(skip_chain, 3),
                      rows.indptr, rows.senders, rows.delivery, rows.cost,
                      plan.z, plan.load, plan.tx_credit, plan.distances):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_lists_are_the_callers_own(self, skip_chain):
        path = best_path(skip_chain, 0, 3)
        path.reverse()
        path.append(99)
        assert best_path(skip_chain, 0, 3) == [0, 1, 2, 3]
        plan = forwarding_plan(skip_chain, 0, 3)
        plan.participants.clear()
        plan.x[(0, 1)] = 1.0
        again = forwarding_plan(skip_chain, 0, 3)
        assert again.participants == [3, 2, 1, 0]
        assert again.x == {}


class TestBuiltTopologiesAreShared:
    def test_keyed_on_the_spec_not_on_how_it_was_written(self):
        spec = TopologySpec("random_geometric", {"node_count": 12, "area": 90.0, "seed": 3})
        reordered = TopologySpec("random_geometric",
                                 {"seed": 3, "area": 90.0, "node_count": 12})
        other_seed = TopologySpec("random_geometric",
                                  {"node_count": 12, "area": 90.0, "seed": 4})
        built = build_topology(spec)
        assert build_topology(reordered) is built
        assert build_topology(TopologySpec.from_dict(spec.to_dict())) is built
        different = build_topology(other_seed)
        assert different is not built
        assert not np.array_equal(different.delivery_matrix(), built.delivery_matrix())

    def test_holds_no_more_than_its_bound(self, tmp_path):
        seeds = tuple(range(TOPOLOGY_CACHE_SIZE + 3))
        sweep = ScenarioSpec(
            name="mesh_per_seed",
            topology=TopologySpec("random_geometric", {"node_count": 8, "area": 60.0}),
            workload=WorkloadSpec("random_pairs", {"count": 1}),
            protocols=("Srcr",),
            run={"total_packets": 4, "estimation_probes": 0},
            sweep={"topology.seed": seeds},
        )
        specs = [cell.scenario.topology for cell in sweep.expand()]
        assert len(run_sweep(sweep, workers=1, results_dir=tmp_path).cells) == len(seeds)
        assert len(_built) == TOPOLOGY_CACHE_SIZE
        kept = {id(topology) for topology in _built.values()}
        # The most recent meshes are still the shared objects; the first was
        # let go and is generated again.
        assert {id(build_topology(spec)) for spec in specs[-TOPOLOGY_CACHE_SIZE:]} == kept
        assert id(build_topology(specs[0])) not in kept
        assert len(_built) == TOPOLOGY_CACHE_SIZE

    def test_a_bad_spec_is_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="bad parameter for topology"):
                build_topology(TopologySpec("chain", {"bogus": 1}))
            with pytest.raises(ValueError, match="unknown topology kind"):
                build_topology(TopologySpec("moebius"))
