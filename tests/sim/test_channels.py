"""Unit tests for the pluggable channel models (repro.sim.channels)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim.channels import (
    CHANNEL_MODELS,
    ChannelSpec,
    DistanceFading,
    GilbertElliott,
    StaticBernoulli,
    TraceDriven,
    build_channel_model,
)
from repro.topology.generator import chain, grid, random_geometric
from repro.topology.graph import Topology


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
        assert set(CHANNEL_MODELS) == {"static", "gilbert_elliott",
                                       "distance_fading", "trace"}

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


class TestGilbertElliott:
    def test_row_is_scaled_base(self):
        topology = chain(4, link_delivery=0.8)
        model = GilbertElliott(seed=3, good_scale=1.0, bad_scale=0.25)
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
        model = GilbertElliott(seed=5, good_scale=1.0, bad_scale=0.0,
                               mean_good_time=0.1, mean_bad_time=0.1)
        model.bind(topology)
        samples = [model.delivery_row(0, t, t)[1]
                   for t in np.linspace(0.0, 200.0, 4001)]
        assert 0.4 < float(np.mean(samples)) < 0.6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GilbertElliott(mean_good_time=0.0)
        with pytest.raises(ValueError, match="bad_scale"):
            GilbertElliott(bad_scale=0.9, good_scale=0.5)

    def test_mean_matrix_is_stationary_average(self):
        topology = chain(2, link_delivery=0.6)
        model = GilbertElliott(seed=1, good_scale=1.0, bad_scale=0.1,
                               mean_good_time=0.1, mean_bad_time=1.0)
        model.bind(topology)
        # Tg/(Tg+Tb) good at scale 1.0, the rest bad at 0.1.
        expected = 0.6 * (0.1 * 1.0 + 1.0 * 0.1) / 1.1
        assert model.mean_matrix()[0, 1] == pytest.approx(expected)


class TestDistanceFading:
    def test_requires_positions(self):
        with pytest.raises(ValueError, match="coordinates"):
            model = DistanceFading(seed=1)
            model.bind(chain(3))  # chains carry no positions

    def test_fade_is_pure_function_of_seed_and_block(self):
        topology = grid(3, 3)
        model_a = DistanceFading(seed=7, coherence_time=0.5)
        model_a.bind(topology)
        model_b = DistanceFading(seed=7, coherence_time=0.5)
        model_b.bind(topology)
        # Query b at earlier blocks first: the fade of block 10 must not
        # depend on the query history.
        for t in (0.1, 2.3, 4.9):
            model_b.delivery_row(0, t, t + 0.002)
        direct = model_a.delivery_row(2, 5.2, 5.202)
        replay = model_b.delivery_row(2, 5.2, 5.202)
        assert np.array_equal(direct, replay)

    def test_fade_changes_across_blocks_not_within(self):
        topology = random_geometric(node_count=10, area=80.0, seed=4)
        model = DistanceFading(seed=2, coherence_time=1.0)
        model.bind(topology)
        within_a = model.delivery_row(1, 0.1, 0.102).copy()
        within_b = model.delivery_row(1, 0.9, 0.902).copy()
        next_block = model.delivery_row(1, 1.1, 1.102).copy()
        assert np.array_equal(within_a, within_b)
        assert not np.array_equal(within_a, next_block)

    def test_probabilities_valid_and_cutoff_applied(self):
        topology = grid(4, 4)
        model = DistanceFading(seed=3, max_delivery=0.9)
        model.bind(topology)
        row = model.delivery_row(0, 0.0, 0.002)
        assert float(row[0]) == 0.0  # no self link
        assert np.all((row == 0.0) | ((row >= 0.05) & (row <= 0.9)))

    def test_mean_matrix_is_zero_shadowing_fade(self):
        topology = grid(3, 3)
        model = DistanceFading(seed=1)
        model.bind(topology)
        mean = model.mean_matrix()
        assert mean.shape == (9, 9)
        assert np.all(np.diag(mean) == 0.0)
        # Nearer pairs fade less: adjacent beats the far corner link.
        assert mean[0, 1] >= mean[0, 8]


class TestTraceDriven:
    def _topology(self) -> Topology:
        return chain(2, link_delivery=0.5)

    def test_replays_series_and_wraps(self):
        model = TraceDriven(series={"0-1": [0.9, 0.1]}, interval=1.0, wrap=True)
        model.bind(self._topology())
        assert model.delivery_row(0, 0.5, 0.502)[1] == 0.9
        assert model.delivery_row(0, 1.5, 1.502)[1] == 0.1
        assert model.delivery_row(0, 2.5, 2.502)[1] == 0.9  # wrapped

    def test_clamp_holds_last_sample(self):
        model = TraceDriven(series={"0-1": [0.9, 0.1]}, interval=1.0, wrap=False)
        model.bind(self._topology())
        assert model.delivery_row(0, 10.0, 10.002)[1] == 0.1

    def test_untraced_links_keep_nominal_value(self):
        model = TraceDriven(series={"0-1": [0.9]})
        model.bind(self._topology())
        assert model.delivery_row(1, 0.0, 0.002)[2] == 0.5

    def test_short_series_padded_with_last_sample(self):
        model = TraceDriven(series={"0-1": [0.9, 0.2], "1-2": [0.3]}, interval=1.0)
        model.bind(self._topology())
        assert model.delivery_row(1, 1.5, 1.502)[2] == 0.3

    def test_update_base_rewrites_only_untraced_links(self):
        # Mobility hook: churned nominal values reach untraced links while
        # traced links keep replaying their series (no stack rebuild).
        model = TraceDriven(series={"0-1": [0.9, 0.1]}, interval=1.0)
        topology = self._topology()
        model.bind(topology)
        churned = topology.delivery_matrix() * 0.5
        model.update_base(churned)
        assert model.delivery_row(0, 0.5, 0.502)[1] == 0.9   # traced: series
        assert model.delivery_row(0, 1.5, 1.502)[1] == 0.1
        assert model.delivery_row(1, 0.5, 0.502)[2] == 0.25  # untraced: churned

    def test_mean_matrix_is_time_average_when_wrapping(self):
        model = TraceDriven(series={"0-1": [1.0, 0.0]})
        model.bind(self._topology())
        assert model.mean_matrix()[0, 1] == pytest.approx(0.5)

    def test_mean_matrix_is_final_sample_when_clamped(self):
        # A non-wrapping trace holds its last sample forever, so that
        # sample is the long-run mean the medium's sense levels track.
        model = TraceDriven(series={"0-1": [0.9, 0.9, 0.1]}, wrap=False)
        model.bind(self._topology())
        assert model.mean_matrix()[0, 1] == pytest.approx(0.1)

    def test_loads_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"interval": 2.0,
                                    "series": {"0-1": [0.4, 0.6]}}))
        model = TraceDriven(path=str(path))
        model.bind(self._topology())
        assert model.interval == 2.0
        assert model.delivery_row(0, 3.0, 3.002)[1] == 0.6

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="series"):
            TraceDriven()
        with pytest.raises(ValueError, match="interval"):
            TraceDriven(series={"0-1": [0.5]}, interval=0.0)
        model = TraceDriven(series={"0-9": [0.5]})
        with pytest.raises(ValueError, match="out of range"):
            model.bind(self._topology())
        model = TraceDriven(series={"zero-one": [0.5]})
        with pytest.raises(ValueError, match="not of the form"):
            model.bind(self._topology())
        model = TraceDriven(series={"0-1": [1.5]})
        with pytest.raises(ValueError, match="outside"):
            model.bind(self._topology())
        model = TraceDriven(series={"0-1": [], "1-0": [0.5]})
        with pytest.raises(ValueError, match="at least one sample"):
            model.bind(self._topology())
