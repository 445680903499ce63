"""Mobility / link-churn models: determinism, epoch purity, physics sanity.

The load-bearing property (mirroring the PR 3 channel models) is that a
realisation is a *pure function of (seed, epoch)*: two instances at one
seed must agree at every epoch no matter in which order each was queried —
that is what keeps back-to-back protocol runs on the same dynamic topology
and parallel sweep cells bit-identical to serial ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.generator import chain, grid, random_geometric
from repro.topology.mobility import (
    MOBILITY_KINDS,
    MOBILITY_MODELS,
    MarkovLinkChurn,
    MobilitySpec,
    RandomWaypoint,
    build_mobility_model,
)


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
    def test_query_order_does_not_matter(self, kind):
        sequential = _bound(kind)
        scattered = _bound(kind)
        # One instance walks epochs in order, the other jumps around
        # (including backwards); realisations must match exactly.
        forward = {epoch: np.array(sequential.delivery_at(epoch))
                   for epoch in range(9)}
        for epoch in (7, 2, 8, 0, 5, 2):
            np.testing.assert_array_equal(scattered.delivery_at(epoch),
                                          forward[epoch])

    def test_seed_changes_realisation(self, kind):
        a = _bound(kind, seed=3)
        b = _bound(kind, seed=4)
        assert any(not np.array_equal(a.delivery_at(e), b.delivery_at(e))
                   for e in range(1, 8))

    def test_delivery_stays_probability(self, kind):
        model = _bound(kind)
        for epoch in range(6):
            matrix = model.delivery_at(epoch)
            assert matrix.min() >= 0.0 and matrix.max() <= 1.0
            assert np.all(np.diag(matrix) == 0.0)


class TestRandomWaypoint:
    def test_positions_move_and_stay_in_arena(self):
        model = _bound("random_waypoint", speed_min=2.0, speed_max=6.0,
                       epoch_length=1.0, area=80.0)
        first = model.positions_at(0)
        later = model.positions_at(10)
        assert not np.allclose(first[:, :2], later[:, :2])
        for epoch in range(12):
            coords = model.positions_at(epoch)[:, :2]
            assert coords.min() >= 0.0 and coords.max() <= 80.0

    def test_epoch_zero_is_the_initial_layout(self):
        topology = random_geometric(node_count=10, area=80.0, seed=1)
        model = RandomWaypoint(seed=3)
        model.bind(topology)
        expected = np.array([node.position for node in topology.nodes])
        np.testing.assert_allclose(model.positions_at(0), expected)

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


class TestMarkovLinkChurn:
    def test_down_links_scaled(self):
        topology = chain(4, link_delivery=0.8)
        model = MarkovLinkChurn(seed=2, epoch_length=0.5, mean_up_time=1.0,
                                mean_down_time=1.0, down_scale=0.25)
        model.bind(topology)
        base = topology.delivery_matrix()
        saw_down = False
        for epoch in range(30):
            up = model.up_mask(epoch)
            matrix = model.delivery_at(epoch)
            expected = base * np.where(up, 1.0, 0.25)
            np.testing.assert_allclose(matrix, expected)
            saw_down = saw_down or not up.all()
        assert saw_down

    def test_symmetric_churn_flaps_both_directions_together(self):
        model = MarkovLinkChurn(seed=2, epoch_length=0.5, mean_up_time=1.0,
                                mean_down_time=1.0)
        model.bind(grid(3, 3))
        for epoch in range(12):
            up = model.up_mask(epoch)
            np.testing.assert_array_equal(up, up.T)

    def test_stationary_up_fraction(self):
        # Long-run fraction of up time should track Tu / (Tu + Td).
        model = MarkovLinkChurn(seed=7, epoch_length=1.0, mean_up_time=3.0,
                                mean_down_time=1.0)
        model.bind(grid(4, 4))
        samples = [model.up_mask(epoch).mean() for epoch in range(400)]
        assert np.mean(samples) == pytest.approx(0.75, abs=0.08)

    def test_positions_unmoved(self):
        model = _bound("link_churn")
        assert model.positions_at(5) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MarkovLinkChurn(mean_up_time=0.0)
        with pytest.raises(ValueError):
            MarkovLinkChurn(down_scale=1.5)
