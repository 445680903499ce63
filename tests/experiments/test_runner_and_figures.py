"""Integration tests for the experiment runner and the figure views.

These use deliberately tiny workloads (few packets, few pairs, small
topologies) so the whole suite stays fast; the benchmarks run the
full-scale versions.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.figures import FIGURES, figure_5_1, table_4_1
from repro.experiments.orchestrator import run_sweep
from repro.experiments.runner import (
    PROTOCOLS,
    RunConfig,
    run_flows,
    run_single_flow,
)
from repro.scenarios import build_flow_sets, build_pairs, build_topology, get_preset
from repro.topology.estimation import probe_estimated_topology
from repro.topology.generator import chain, diamond, indoor_testbed, random_geometric

FAST = RunConfig(total_packets=16, batch_size=8, packet_size=500,
                 coding_payload_size=8, max_duration=60.0, seed=1)


class TestRunner:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_each_protocol_completes_a_flow(self, protocol):
        topo = chain(2, link_delivery=0.75)
        result = run_single_flow(topo, protocol, 0, 2, config=FAST)
        assert result.completed
        assert result.delivered_packets == FAST.total_packets
        assert result.throughput_pkts > 0
        assert result.protocol == protocol

    def test_unknown_protocol_rejected(self):
        topo = chain(1)
        with pytest.raises(ValueError):
            run_single_flow(topo, "OSPF", 0, 1, config=FAST)

    def test_run_flows_multi_flow(self):
        topo = diamond(0.6, 0.7, relay_count=2, direct=0.3)
        destination = topo.node_count - 1
        results = run_flows(topo, "MORE", [(0, destination), (destination, 0)], config=FAST)
        assert len(results) == 2
        assert all(r.completed for r in results)

    def test_results_are_reproducible(self):
        topo = chain(2, link_delivery=0.7)
        first = run_single_flow(topo, "MORE", 0, 2, config=FAST)
        second = run_single_flow(topo, "MORE", 0, 2, config=FAST)
        assert first.throughput_pkts == pytest.approx(second.throughput_pkts)

    def test_bitrate_override_changes_throughput(self):
        topo = chain(1, link_delivery=0.85)
        slow = run_single_flow(topo, "Srcr", 0, 1, config=replace(FAST, bitrate=1_000_000))
        fast = run_single_flow(topo, "Srcr", 0, 1, config=replace(FAST, bitrate=11_000_000))
        assert fast.throughput_pkts > slow.throughput_pkts

    def test_throughput_is_one_field_in_packets_per_second(self):
        result = run_single_flow(chain(1, link_delivery=0.85), "Srcr", 0, 1, config=FAST)
        assert result.throughput_pkts == result.delivered_packets / result.duration
        assert not hasattr(result, "throughput")  # no alias beside the field

    def test_control_view_toggle(self):
        perfect = RunConfig(total_packets=8, batch_size=8, packet_size=500,
                            estimation_exponent=1.0, estimation_probes=0)
        topo = indoor_testbed(node_count=10, floors=2, seed=11)
        view = perfect.control_view(topo)
        assert view is topo
        noisy = RunConfig(total_packets=8, batch_size=8, packet_size=500)
        assert noisy.control_view(topo) is not topo

    @pytest.mark.parametrize("probes", [0, 10])
    @pytest.mark.parametrize("exponent", [1.5, 0.0, -0.5, math.inf])
    def test_estimation_exponent_outside_unit_interval_is_refused(self, exponent, probes):
        """Above 1 ran silently as a perfectly informed control plane without
        probes, and died mid-run inside the estimator with them."""
        with pytest.raises(ValueError, match=r"estimation_exponent must lie in \(0, 1\]"):
            RunConfig(estimation_exponent=exponent, estimation_probes=probes)


class TestControlPlaneIsDerivedOnce:
    """Two flows over one mesh at different run seeds: what the control
    plane derives is counted, not timed (the 1000-node claim at 300 nodes)."""

    PAIR = (17, 250)

    @pytest.fixture
    def mesh(self):
        return random_geometric(node_count=300, area=515.0, seed=5)

    def _two_flows(self, mesh, probes):
        for seed in (3, 4):
            config = RunConfig(total_packets=32, batch_size=32, max_relays=10,
                               max_duration=60.0, estimation_probes=probes, seed=seed)
            assert run_single_flow(mesh, "MORE", *self.PAIR, config=config).completed

    def test_probe_free_control_plane_is_shared_across_seeds(self, mesh):
        self._two_flows(mesh, probes=0)
        # On the mesh: its receiver-major index, the one control view, and
        # the medium's tables.  On the
        # view: the mesh's index (the same links), one set of link rows,
        # one plan, one Dijkstra per distinct destination (the flow's, and
        # the source as the batch ACKs' destination).
        key, incoming, medium = sorted(mesh._derived, key=lambda each: each[0])
        assert key[0] == "control_view"
        assert incoming == ("incoming",)
        assert medium == ("medium",)
        source, destination = self.PAIR
        view = mesh._derived[key]
        derived = sorted((kind, *rest[:1]) for kind, *rest in view._derived)
        assert derived == [("etx_routes", source), ("etx_routes", destination),
                           ("forwarding_plan", source), ("incoming",), ("link_rows", False)]
        assert view.incoming() is mesh.incoming()

    def test_sampled_control_views_are_per_seed(self, mesh, monkeypatch):
        views = []

        def recording(*args, **kwargs):
            views.append(probe_estimated_topology(*args, **kwargs))
            return views[-1]
        monkeypatch.setattr(runner, "probe_estimated_topology", recording)
        self._two_flows(mesh, probes=100)
        first, second = views
        assert first is not second
        assert not np.array_equal(first.link_table().delivery,
                                  second.link_table().delivery)
        # A sampled view is not kept on the mesh (its receiver-major index
        # and the medium's tables are) ...
        assert set(mesh._derived) == {("incoming",), ("medium",)}
        assert first._derived and second._derived  # ... each plans from its own


class TestOpportunisticGain:
    def test_more_beats_srcr_on_a_challenged_topology(self):
        """The Figure 1-1/2-1 story: with lossy links and useful overhearing,
        MORE delivers higher throughput than best-path routing."""
        topo = diamond(0.45, 0.45, relay_count=3, direct=0.15)
        destination = topo.node_count - 1
        config = RunConfig(total_packets=32, batch_size=16, packet_size=1000,
                           coding_payload_size=8, seed=2)
        more = run_single_flow(topo, "MORE", 0, destination, config=config)
        srcr = run_single_flow(topo, "Srcr", 0, destination, config=config)
        assert more.completed and srcr.completed
        assert more.throughput_pkts > srcr.throughput_pkts

    def test_more_and_exor_complete_on_the_testbed(self, testbed):
        config = RunConfig(total_packets=32, batch_size=32, packet_size=1500, seed=3)
        pair = (17, 2)
        for protocol in ("MORE", "ExOR"):
            result = run_single_flow(testbed, protocol, *pair, config=config)
            assert result.completed


@pytest.mark.parametrize("protocol", ["MORE", "ExOR", "Srcr"])
def test_end_to_end_transfer(testbed, protocol):
    """A three-batch, 96-packet transfer of full-size packets over the testbed
    delivers every packet under each protocol."""
    config = RunConfig(total_packets=96, batch_size=32, packet_size=1500, seed=2)
    result = run_single_flow(testbed, protocol, 17, 2, config=config)
    assert result.completed
    assert result.delivered_packets == config.total_packets


class TestFigureHarnesses:
    def test_table_4_1_structure(self):
        result = table_4_1(batch_size=16, packet_size=512, iterations=10)
        summary = result.summary
        # Only load-insensitive facts here: the table is wall-clock, reported
        # by `python -m repro figure table_4_1` and gated nowhere, because a
        # load burst during one micro-measurement can invert any ratio
        # between two workloads; `python3 -m bench --trace 1` measures its
        # layers normalised.
        for name in ("independence_check_us", "coding_at_source_us",
                     "decoding_us"):
            assert summary[name] > 0
        assert "Table 4.1" in result.report

    def test_figure_5_1_gap_series(self):
        spec = get_preset("fig_5_1").with_overrides({"workload.count": 6})
        result = figure_5_1(spec, run_sweep(spec, results_dir=None).cells,
                            bridge_deliveries=(0.2, 0.1), branch_count=4)
        analytic = result.series["analytic_gap"]
        measured = result.series["measured_gap"]
        assert len(analytic) == len(measured) == 2
        # The gap grows as the bridge link weakens, in both closed form and
        # the Algorithm-1 measurement.
        assert analytic[1] > analytic[0]
        assert measured[1] > measured[0]
        assert result.summary["testbed_median_gap_affected"] < 0.2

    def test_views_report_the_pairs_of_their_spec(self):
        """A view selects nothing itself: the pairs / flow sets it reports are
        the ones ``build_pairs`` / ``build_flow_sets`` derive from its spec."""
        tiny = {"run.total_packets": 16, "run.batch_size": 8, "run.packet_size": 500,
                "run.coding_payload_size": 8}
        for number in ("4_2", "4_3", "4_4", "4_6", "4_7", "5_1"):
            preset = FIGURES[f"figure_{number}"].preset
            spec = get_preset(preset).with_overrides({**tiny, "workload.count": 2})
            if number == "4_7":
                spec.sweep["run.batch_size"] = (8, 16)
            cells = run_sweep(spec, results_dir=None).cells
            result = FIGURES[f"figure_{number}"].view(spec, cells)
            cell = spec.expand()[0]
            pairs = build_pairs(cell.scenario.workload, build_topology(spec.topology),
                                cell.seed)
            assert result.extras["pairs"] == [list(pair) for pair in pairs]

        spec = get_preset("fig_4_5").with_overrides(
            {**tiny, "workload.flows_per_set": 2, "workload.set_count": 1})
        spec.sweep["workload.flow_count"] = (1, 2)
        result = FIGURES["figure_4_5"].view(spec, run_sweep(spec, results_dir=None).cells)
        cell = spec.expand()[-1]  # the full sets; smaller counts run their prefixes
        flow_sets = build_flow_sets(cell.scenario.workload, build_topology(spec.topology),
                                    cell.seed)
        assert result.extras["flow_sets"] \
            == [[list(pair) for pair in flow_set] for flow_set in flow_sets]
