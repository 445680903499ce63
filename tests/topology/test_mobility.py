"""Mobility / link-churn models: determinism, epoch purity, physics sanity.

The load-bearing property (mirroring the channel models) is that a
realisation is a *pure function of (seed, epoch)*: two instances at one
seed must agree at every epoch no matter in which order each was queried —
that is what keeps back-to-back protocol runs on the same dynamic topology
and parallel sweep cells bit-identical to serial ones.  It is checked for
every registered kind, with the channel and fault models, by
``tests/invariants/test_random_streams.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.generator import chain, grid, random_geometric
from repro.topology.graph import LinkTable
from repro.topology.mobility import (
    MOBILITY_KINDS,
    MOBILITY_MODELS,
    MarkovLinkChurn,
    MobilitySpec,
    RandomWaypoint,
    build_mobility_model,
)


def _same_links(a: LinkTable, b: LinkTable) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _links(model, epoch: int) -> LinkTable:
    return model.topology_at(epoch).link_table()


def _positions(model, epoch: int) -> np.ndarray:
    return np.array(model.topology_at(epoch).node_positions())


def _bound(kind: str, seed: int = 3, **params):
    model = MOBILITY_MODELS[kind](seed=seed, **params)
    topology = chain(4, link_delivery=0.8) if kind == "link_churn" \
        else random_geometric(node_count=10, area=80.0, seed=1)
    model.bind(topology)
    return model


class TestSpec:
    def test_round_trip(self):
        spec = MobilitySpec("random_waypoint", {"speed_max": 4.0})
        clone = MobilitySpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_build_dispatch_and_none(self):
        assert build_mobility_model(None) is None
        assert build_mobility_model(MobilitySpec()) is None
        model = build_mobility_model(MobilitySpec("link_churn"), seed=5)
        assert isinstance(model, MarkovLinkChurn)
        assert model.seed == 5
        with pytest.raises(ValueError, match="unknown mobility kind"):
            build_mobility_model(MobilitySpec("teleport"))
        with pytest.raises(ValueError, match="bad parameter"):
            build_mobility_model(MobilitySpec("link_churn", {"warp": 1}))
        with pytest.raises(ValueError, match="no parameters"):
            build_mobility_model(MobilitySpec("none", {"speed": 1.0}))

    def test_kinds_cover_models(self):
        assert set(MOBILITY_KINDS) == {"none"} | set(MOBILITY_MODELS)


@pytest.mark.parametrize("kind", sorted(MOBILITY_MODELS))
class TestEpochPurity:
    def test_seed_changes_realisation(self, kind):
        a = _bound(kind, seed=3)
        b = _bound(kind, seed=4)
        assert any(not _same_links(_links(a, e), _links(b, e))
                   for e in range(1, 8))

    def test_an_epoch_is_one_mesh_kept_until_the_next(self, kind):
        """Asked twice, an epoch is the same object, under the bound mesh's
        names; asking another epoch drops it."""
        model = _bound(kind)
        names = [node.name for node in model.topology_at(0).nodes]
        epoch = model.topology_at(2)
        assert model.topology_at(2) is epoch
        assert [node.name for node in epoch.nodes] == names
        model.topology_at(3)
        again = model.topology_at(2)
        assert again is not epoch and _same_links(again.link_table(), epoch.link_table())

    def test_delivery_stays_probability(self, kind):
        model = _bound(kind)
        for epoch in range(6):
            table = _links(model, epoch)
            assert table.indptr[-1] == table.receivers.size == table.delivery.size
            assert table.delivery.min() > 0.0 and table.delivery.max() <= 1.0
            assert not np.any(table.senders() == table.receivers)
            for start, stop in zip(table.indptr[:-1], table.indptr[1:]):
                assert np.all(np.diff(table.receivers[start:stop]) > 0)


class TestRandomWaypoint:
    def test_positions_move_and_stay_in_arena(self):
        model = _bound("random_waypoint", speed_min=2.0, speed_max=6.0,
                       epoch_length=1.0, area=80.0)
        first = _positions(model, 0)
        later = _positions(model, 10)
        assert not np.allclose(first[:, :2], later[:, :2])
        for epoch in range(12):
            coords = _positions(model, epoch)[:, :2]
            assert coords.min() >= 0.0 and coords.max() <= 80.0

    def test_epoch_zero_is_the_initial_layout(self):
        topology = random_geometric(node_count=10, area=80.0, seed=1)
        model = RandomWaypoint(seed=3)
        model.bind(topology)
        expected = np.array([node.position for node in topology.nodes])
        np.testing.assert_allclose(_positions(model, 0), expected)

    def test_needs_positions(self):
        model = RandomWaypoint(seed=1)
        with pytest.raises(ValueError, match="needs node coordinates"):
            model.bind(chain(3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(speed_min=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(area=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(epoch_length=0.0)
        # Non-finite values used to die mid-run: an infinite speed or arena
        # overflowed a leg, an infinite epoch indexed past the legs.
        with pytest.raises(ValueError, match="speed_max < inf"):
            RandomWaypoint(speed_max=float("inf"))
        with pytest.raises(ValueError, match="area must be positive and finite"):
            RandomWaypoint(area=float("inf"))
        for epoch_length in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="epoch_length must be positive and finite"):
                RandomWaypoint(epoch_length=epoch_length)


class TestMarkovLinkChurn:
    def test_down_links_scaled(self):
        topology = chain(4, link_delivery=0.8)
        model = MarkovLinkChurn(seed=2, epoch_length=0.5, mean_up_time=1.0,
                                mean_down_time=1.0, down_scale=0.25)
        model.bind(topology)
        nominal = topology.link_table()
        saw_down = False
        for epoch in range(30):
            table = _links(model, epoch)
            np.testing.assert_array_equal(table.indptr, nominal.indptr)
            np.testing.assert_array_equal(table.receivers, nominal.receivers)
            scale = table.delivery / nominal.delivery
            np.testing.assert_allclose(scale[~np.isclose(scale, 1.0)], 0.25)
            saw_down = saw_down or not np.allclose(scale, 1.0)
        assert saw_down

    def test_symmetric_churn_flaps_both_directions_together(self):
        topology = grid(3, 3)
        model = MarkovLinkChurn(seed=2, epoch_length=0.5, mean_up_time=1.0,
                                mean_down_time=1.0)
        model.bind(topology)
        assert np.array_equal(topology.delivery_matrix(), topology.delivery_matrix().T)
        for epoch in range(12):
            churned = model.topology_at(epoch).delivery_matrix()
            np.testing.assert_array_equal(churned, churned.T)

    def test_stationary_up_fraction(self):
        # Long-run fraction of up time should track Tu / (Tu + Td).
        model = MarkovLinkChurn(seed=7, epoch_length=1.0, mean_up_time=3.0,
                                mean_down_time=1.0)
        topology = grid(4, 4)
        model.bind(topology)
        links = topology.link_table().receivers.size
        samples = [_links(model, epoch).receivers.size / links for epoch in range(400)]
        assert np.mean(samples) == pytest.approx(0.75, abs=0.08)

    @pytest.mark.parametrize("topology", [chain(4), random_geometric(node_count=6, seed=2)],
                             ids=["no_positions", "positions"])
    def test_positions_unmoved(self, topology):
        model = MarkovLinkChurn(seed=3)
        model.bind(topology)
        assert model.topology_at(5).node_positions() == topology.node_positions()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MarkovLinkChurn(mean_up_time=0.0)
        with pytest.raises(ValueError):
            MarkovLinkChurn(down_scale=1.5)
        with pytest.raises(ValueError, match="epoch_length must be positive and finite"):
            MarkovLinkChurn(epoch_length=float("inf"))

    @pytest.mark.parametrize("name", ["mean_up_time", "mean_down_time"])
    def test_infinite_sojourn_rejected(self, name):
        """inf/(inf + T) is NaN: every link used to start down."""
        with pytest.raises(ValueError, match="positive and finite"):
            MarkovLinkChurn(**{name: float("inf")})
