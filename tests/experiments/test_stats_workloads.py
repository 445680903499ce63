"""Tests for experiment statistics helpers and workload generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.stats import (
    cdf,
    median,
    median_gain,
    pairwise_gains,
    percentile,
    summarize,
)
from repro.experiments.workloads import (
    multiflow_sets,
    random_pairs,
    reachable_pairs,
    spatial_reuse_pairs,
)
from repro.metrics.etx import best_path
from repro.sim.medium import WirelessMedium
from repro.topology.generator import chain


class TestStats:
    def test_cdf_is_monotone_and_normalised(self):
        x, y = cdf([5.0, 1.0, 3.0, 3.0])
        assert list(x) == [1.0, 3.0, 3.0, 5.0]
        assert y[0] == pytest.approx(0.25)
        assert y[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(y, y[1:]))

    def test_cdf_empty(self):
        x, y = cdf([])
        assert x.size == 0 and y.size == 0

    def test_percentiles_and_median(self):
        values = list(range(1, 101))
        assert median(values) == pytest.approx(50.5)
        assert percentile(values, 10) == pytest.approx(10.9)
        assert math.isnan(median([]))

    def test_summarize(self):
        summary = summarize([10.0, 20.0, 30.0, 40.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(25.0)
        assert summary.median == pytest.approx(25.0)
        assert summary.minimum == 10.0 and summary.maximum == 40.0
        empty = summarize([])
        assert empty.count == 0 and math.isnan(empty.mean)

    def test_median_gain(self):
        assert median_gain([20, 40, 60], [10, 20, 30]) == pytest.approx(2.0)
        assert math.isnan(median_gain([1.0], [0.0]))

    def test_pairwise_gains(self):
        gains = pairwise_gains([10, 30], [5, 10])
        assert gains == [2.0, 3.0]
        assert pairwise_gains([10], [0.0]) == []


class TestWorkloads:
    def test_reachable_pairs_excludes_self(self, testbed):
        pairs = reachable_pairs(testbed)
        assert all(s != d for s, d in pairs)
        assert len(pairs) > 100  # a connected 20-node mesh has many pairs

    def test_reachable_pairs_min_hops(self, testbed):
        pairs = reachable_pairs(testbed, min_hops=3)
        for source, destination in pairs[:10]:
            assert len(best_path(testbed, source, destination)) - 1 >= 3

    def test_random_pairs_deterministic(self, testbed):
        assert random_pairs(testbed, 10, seed=5) == random_pairs(testbed, 10, seed=5)
        assert random_pairs(testbed, 10, seed=5) != random_pairs(testbed, 10, seed=6)

    def test_random_pairs_no_duplicates_when_possible(self, testbed):
        pairs = random_pairs(testbed, 30, seed=1)
        assert len(set(pairs)) == 30

    def test_random_pairs_on_tiny_topology(self):
        topo = chain(1, link_delivery=0.9)
        pairs = random_pairs(topo, 5, seed=0)
        assert len(pairs) == 5  # sampled with replacement
        assert set(pairs) <= {(0, 1), (1, 0)}

    def test_spatial_reuse_pairs_have_isolated_endpoints(self, testbed):
        pairs = spatial_reuse_pairs(testbed, 10, path_hops=4)
        for source, destination in pairs:
            path = best_path(testbed, source, destination)
            assert len(path) - 1 == 4
            last_hop_sender = path[-2]
            assert testbed.delivery(source, last_hop_sender) <= 0.10

    def test_spatial_reuse_pairs_follow_the_medium_sense_rule(self, testbed):
        """Pair selection and the medium share one carrier-sense rule: the
        selected pairs are the 4-hop pairs whose last-hop sender the medium
        does not let sense the source."""
        four_hop = {(source, destination): best_path(testbed, source, destination)
                    for source, destination in reachable_pairs(testbed, min_hops=4)}
        four_hop = {pair: path for pair, path in four_hop.items() if len(path) - 1 == 4}
        medium = WirelessMedium(testbed, np.random.default_rng(0))
        selected = set(spatial_reuse_pairs(testbed, 1000))
        assert selected == {(source, destination)
                            for (source, destination), path in four_hop.items()
                            if not medium.can_sense(path[-2], source)}
        assert selected and selected < set(four_hop)

    def test_multiflow_sets_shape(self, testbed):
        sets = multiflow_sets(testbed, flows_per_set=3, set_count=5, seed=2)
        assert len(sets) == 5
        for flow_set in sets:
            assert len(flow_set) == 3
            assert len(set(flow_set)) == 3

    def test_multiflow_sets_too_many_flows(self):
        topo = chain(1, link_delivery=0.9)
        with pytest.raises(ValueError):
            multiflow_sets(topo, flows_per_set=10, set_count=1)
