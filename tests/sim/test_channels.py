"""Unit tests for the pluggable channel models (repro.sim.channels)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim.channels import (
    CHANNEL_KINDS,
    CHANNEL_MODELS,
    ChannelSpec,
    GilbertElliott,
    build_channel_model,
)
from repro.topology.generator import chain, grid
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

    @pytest.mark.parametrize("spec", [None, ChannelSpec("static"), ChannelSpec()],
                             ids=["none", "static", "default"])
    def test_static_is_no_model(self, spec):
        """A static channel is the mesh's own links: nothing is built."""
        assert build_channel_model(spec, seed=3) is None

    def test_static_accepts_no_parameters(self):
        with pytest.raises(ValueError, match="^channel kind 'static' accepts no parameters$"):
            build_channel_model(ChannelSpec("static", {"seed": 3}))

    def test_build_bad_param_is_one_line_value_error(self):
        # Bad `channel.<param>` overrides must surface as `repro: error: ...`
        # from the CLI, which only catches ValueError — not a TypeError trace.
        with pytest.raises(ValueError, match="bad parameter"):
            build_channel_model(ChannelSpec("gilbert_elliott", {"bogus": 1}))

    def test_registry_covers_all_models(self):
        assert set(CHANNEL_MODELS) == {"gilbert_elliott"}

    def test_kinds_are_static_then_the_models(self):
        assert CHANNEL_KINDS == ("static", "gilbert_elliott")

    def test_params_seed_overrides_cell_seed(self):
        model = build_channel_model(
            ChannelSpec("gilbert_elliott", {"seed": 99}), seed=1)
        assert model.seed == 99


def _row_links(model, sender: int) -> np.ndarray:
    """The receivers of ``sender``'s links, in the order of its delivery row."""
    table = model.mean_view().link_table()
    return table.receivers[table.indptr[sender]:table.indptr[sender + 1]]


def _dense_row(model, sender: int, start: float, end: float) -> np.ndarray:
    """``model``'s delivery row for one frame, spread over every node."""
    row = np.zeros(model.mean_view().node_count)
    row[_row_links(model, sender)] = model.delivery_row(sender, start, end)
    return row


class TestGilbertElliott:
    def test_row_is_scaled_base(self):
        topology = chain(4, link_delivery=0.8)
        model = GilbertElliott(seed=3, bad_scale=0.25)
        model.bind(topology)
        base = topology.delivery_matrix()[1]
        ratio = model.delivery_row(1, 0.0, 0.002) / base[_row_links(model, 1)]
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
        samples = [model.delivery_row(0, t, t)[0]
                   for t in np.linspace(0.0, 200.0, 4001)]
        assert 0.4 < float(np.mean(samples)) < 0.6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GilbertElliott(mean_good_time=0.0)
        with pytest.raises(ValueError, match="bad_scale"):
            GilbertElliott(bad_scale=1.5)

    @pytest.mark.parametrize("name", ["mean_good_time", "mean_bad_time"])
    def test_infinite_sojourn_rejected(self, name):
        """inf/(inf + T) is NaN: the mean delivery was all NaN, which switched
        the medium's carrier sense and interference off."""
        with pytest.raises(ValueError, match="positive and finite"):
            GilbertElliott(**{name: float("inf")})

    def test_mean_view_is_stationary_average(self):
        topology = chain(2, link_delivery=0.6)
        model = GilbertElliott(seed=1, bad_scale=0.1,
                               mean_good_time=0.1, mean_bad_time=1.0)
        model.bind(topology)
        # Tg/(Tg+Tb) good at scale 1.0, the rest bad at 0.1.
        expected = 0.6 * (0.1 * 1.0 + 1.0 * 0.1) / 1.1
        assert model.mean_view().delivery(0, 1) == pytest.approx(expected)

    def test_a_second_bind_keeps_the_chains_running(self):
        """New nominal links (a mobility epoch) rescale the row; the
        good/bad states at a given time are unchanged by them."""
        topology = grid(3, 3)
        model = GilbertElliott(seed=4, bad_scale=0.1, mean_good_time=0.2,
                               mean_bad_time=0.2)
        model.bind(topology)
        before = model.delivery_row(4, 1.3, 1.302).copy()
        draws = model._draws.copy()
        model.bind(Topology(topology.delivery_matrix() * 0.5))
        # Each chain resumes at its draw, not from draw 0.
        assert np.array_equal(model._draws, draws)
        np.testing.assert_allclose(model.delivery_row(4, 1.3, 1.302), before * 0.5)
