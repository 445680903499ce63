"""Unit tests for the pluggable channel models (repro.sim.channels)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim.channels import (
    CHANNEL_MODELS,
    ChannelSpec,
    GilbertElliott,
    StaticBernoulli,
    build_channel_model,
)
from repro.topology.generator import chain, grid


class TestChannelSpec:
    def test_round_trip(self):
        spec = ChannelSpec("gilbert_elliott", {"bad_scale": 0.1})
        clone = ChannelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ChannelSpec.from_dict({"params": {}})

    def test_build_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            build_channel_model(ChannelSpec("rayleigh"), seed=1)

    def test_build_none_is_static(self):
        assert isinstance(build_channel_model(None), StaticBernoulli)

    def test_build_bad_param_is_one_line_value_error(self):
        # Bad `channel.<param>` overrides must surface as `repro: error: ...`
        # from the CLI, which only catches ValueError — not a TypeError trace.
        with pytest.raises(ValueError, match="bad parameter"):
            build_channel_model(ChannelSpec("gilbert_elliott", {"bogus": 1}))

    def test_registry_covers_all_models(self):
        assert set(CHANNEL_MODELS) == {"static", "gilbert_elliott"}

    def test_params_seed_overrides_cell_seed(self):
        model = build_channel_model(
            ChannelSpec("gilbert_elliott", {"seed": 99}), seed=1)
        assert model.seed == 99


class TestStaticBernoulli:
    def test_row_matches_topology_and_never_varies(self):
        topology = chain(3, link_delivery=0.7, skip_delivery=0.2)
        model = StaticBernoulli()
        model.bind(topology)
        expected = topology.delivery_matrix()
        for now in (0.0, 1.5, 300.0):
            assert np.array_equal(model.delivery_row(1, now, now + 0.002),
                                  expected[1])
        assert np.array_equal(model.mean_matrix(), expected)

    def test_update_base_replaces_rows_and_mean(self):
        topology = chain(3, link_delivery=0.7)
        model = StaticBernoulli()
        model.bind(topology)
        churned = topology.delivery_matrix() * 0.5
        model.update_base(churned)
        assert np.array_equal(model.delivery_row(1, 0.0, 0.002), churned[1])
        assert np.array_equal(model.mean_matrix(), churned)


class TestGilbertElliott:
    def test_row_is_scaled_base(self):
        topology = chain(4, link_delivery=0.8)
        model = GilbertElliott(seed=3, bad_scale=0.25)
        model.bind(topology)
        base = topology.delivery_matrix()[1]
        row = model.delivery_row(1, 0.0, 0.002)
        links = base > 0
        ratio = row[links] / base[links]
        assert set(np.round(ratio, 6)) <= {0.25, 1.0}

    def test_same_seed_replays_identically(self):
        topology = grid(3, 3)
        times = np.linspace(0.0, 5.0, 40)
        rows = []
        for _ in range(2):
            model = GilbertElliott(seed=11, mean_good_time=0.2, mean_bad_time=0.05)
            model.bind(topology)
            rows.append([model.delivery_row(0, t, t + 0.002).copy() for t in times])
        assert all(np.array_equal(a, b) for a, b in zip(*rows))

    def test_state_independent_of_query_pattern(self):
        """The chain at time t is a pure function of (seed, t).

        Counter-based draws mean neither fine-grained stepping of one row
        nor interleaved queries of other senders' rows can change which
        holding time a link gets — back-to-back protocol runs at one seed
        see the same channel realisation even though their traffic (and
        hence query pattern) differs.
        """
        topology = grid(3, 3)

        def fresh():
            model = GilbertElliott(seed=11, mean_good_time=0.2,
                                   mean_bad_time=0.05)
            model.bind(topology)
            return model

        direct = fresh().delivery_row(0, 3.0, 3.002).copy()
        stepped = fresh()
        for t in np.linspace(0.0, 2.9, 30):
            stepped.delivery_row(0, t, t + 0.002)
        interleaved = fresh()
        for t in np.linspace(0.0, 2.9, 10):
            for sender in (5, 1, 0):
                interleaved.delivery_row(sender, t, t + 0.002)
        assert np.array_equal(stepped.delivery_row(0, 3.0, 3.002), direct)
        assert np.array_equal(interleaved.delivery_row(0, 3.0, 3.002), direct)

    def test_different_seeds_differ(self):
        topology = grid(3, 3)
        rows = {}
        for seed in (1, 2):
            model = GilbertElliott(seed=seed, mean_good_time=0.05,
                                   mean_bad_time=0.05, bad_scale=0.0)
            model.bind(topology)
            rows[seed] = np.stack([model.delivery_row(0, t, t + 0.001)
                                   for t in np.linspace(0, 2, 50)])
        assert not np.array_equal(rows[1], rows[2])

    def test_long_run_average_near_stationary_mix(self):
        topology = chain(1, link_delivery=1.0)
        model = GilbertElliott(seed=5, bad_scale=0.0,
                               mean_good_time=0.1, mean_bad_time=0.1)
        model.bind(topology)
        samples = [model.delivery_row(0, t, t)[1]
                   for t in np.linspace(0.0, 200.0, 4001)]
        assert 0.4 < float(np.mean(samples)) < 0.6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GilbertElliott(mean_good_time=0.0)
        with pytest.raises(ValueError, match="bad_scale"):
            GilbertElliott(bad_scale=1.5)

    def test_mean_matrix_is_stationary_average(self):
        topology = chain(2, link_delivery=0.6)
        model = GilbertElliott(seed=1, bad_scale=0.1,
                               mean_good_time=0.1, mean_bad_time=1.0)
        model.bind(topology)
        # Tg/(Tg+Tb) good at scale 1.0, the rest bad at 0.1.
        expected = 0.6 * (0.1 * 1.0 + 1.0 * 0.1) / 1.1
        assert model.mean_matrix()[0, 1] == pytest.approx(expected)

    def test_update_base_keeps_the_chains_running(self):
        """A new nominal matrix (a mobility epoch) rescales the row; the
        good/bad states at a given time are unchanged by it."""
        topology = grid(3, 3)
        model = GilbertElliott(seed=4, bad_scale=0.1, mean_good_time=0.2,
                               mean_bad_time=0.2)
        model.bind(topology)
        before = model.delivery_row(4, 1.3, 1.302).copy()
        model.update_base(topology.delivery_matrix() * 0.5)
        np.testing.assert_allclose(model.delivery_row(4, 1.3, 1.302), before * 0.5)
