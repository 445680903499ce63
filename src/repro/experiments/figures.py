"""The paper's figures as views over their scenario presets.

A figure of Chapter 4 (or the Section 5.7 gap survey) is *described* once,
by its preset in :mod:`repro.scenarios.presets` (``fig_4_2`` … ``fig_5_1``),
and *run* by the one executor, :func:`repro.scenarios.execute.run_cell` —
the same cells ``python -m repro run --preset fig_4_2`` runs.  Each view
here takes an optional :class:`~repro.scenarios.spec.ScenarioSpec` (default:
its preset; a reduced or full-scale variant is the preset with
``workload.*`` / ``run.*`` overridden, single seed) and adds only what is
specific to the figure: the summary statistics the paper quotes and a text
report, so results can be compared directly with the paper's numbers.
``table_4_1`` and the bridge curve of ``figure_5_1`` measure no scenario
and are computed here directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import make_batch
from repro.experiments.stats import cdf, median, median_gain, pairwise_gains, summarize
from repro.gf.arithmetic import CoefficientStream
from repro.metrics.gap import figure_5_1_gap, gap_survey
from repro.topology.generator import cost_gap_topology

if TYPE_CHECKING:  # pragma: no cover - import cycle: scenarios uses workloads
    from repro.scenarios.execute import CellResult
    from repro.scenarios.spec import ScenarioSpec


@dataclass
class FigureResult:
    """Output of one figure-reproduction function."""

    name: str
    series: dict[str, list[float]]
    summary: dict[str, float]
    report: str
    extras: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.report


def _run(spec: ScenarioSpec | None, preset: str) -> tuple[ScenarioSpec, list[CellResult]]:
    """``spec`` (default: the named preset) and the result of each of its cells."""
    from repro.scenarios.execute import run_cell
    from repro.scenarios.presets import get_preset

    if spec is None:
        spec = get_preset(preset)
    return spec, [run_cell(cell) for cell in spec.expand()]


def _format_protocol_table(series: dict[str, list[float]]) -> str:
    lines = [f"{'protocol':<10} {'median':>8} {'mean':>8} {'p10':>8} {'p90':>8} {'n':>4}"]
    for protocol, values in series.items():
        summary = summarize(values)
        lines.append(
            f"{protocol:<10} {summary.median:8.1f} {summary.mean:8.1f} "
            f"{summary.p10:8.1f} {summary.p90:8.1f} {summary.count:4d}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figure 4-2: CDF of unicast throughput, MORE vs ExOR vs Srcr
# --------------------------------------------------------------------------- #

def figure_4_2(spec: ScenarioSpec | None = None) -> FigureResult:
    """Unicast throughput comparison over random pairs (paper Fig 4-2).

    Paper result: MORE median 22% above ExOR, 95% above Srcr; some pairs gain
    10-12x over Srcr; MORE's 10th percentile above 50 pkt/s vs Srcr's 10.
    """
    _, (cell,) = _run(spec, "fig_4_2")
    series = cell.series
    summary = {
        "more_over_exor_median_gain": median_gain(series["MORE"], series["ExOR"]),
        "more_over_srcr_median_gain": median_gain(series["MORE"], series["Srcr"]),
        "more_p10": summarize(series["MORE"]).p10,
        "srcr_p10": summarize(series["Srcr"]).p10,
        "max_pairwise_gain_over_srcr": max(pairwise_gains(series["MORE"], series["Srcr"]),
                                           default=float("nan")),
    }
    report = (
        "Figure 4-2: unicast throughput CDF (pkt/s)\n"
        + _format_protocol_table(series)
        + f"\nMORE/ExOR median gain: {summary['more_over_exor_median_gain']:.2f}x"
        + f"\nMORE/Srcr median gain: {summary['more_over_srcr_median_gain']:.2f}x"
        + f"\nmax per-pair MORE/Srcr gain: {summary['max_pairwise_gain_over_srcr']:.1f}x"
    )
    cdfs = {name: cdf(values) for name, values in series.items()}
    return FigureResult(name="figure_4_2", series=series, summary=summary, report=report,
                        extras={"pairs": cell.meta["pairs"], "cdf": cdfs})


# --------------------------------------------------------------------------- #
# Figure 4-3: scatter of per-pair throughput, opportunistic vs Srcr
# --------------------------------------------------------------------------- #

def figure_4_3(spec: ScenarioSpec | None = None) -> FigureResult:
    """Per-pair scatter MORE-vs-Srcr and ExOR-vs-Srcr (paper Fig 4-3).

    Paper result: points far above the 45-degree line are the challenged
    (low-Srcr-throughput) flows; good Srcr flows do not improve much.
    """
    _, (cell,) = _run(spec, "fig_4_3")
    srcr = cell.series["Srcr"]
    more = cell.series["MORE"]
    exor = cell.series["ExOR"]
    # Split pairs into challenged (below-median Srcr throughput) and good.
    srcr_median = median(srcr)
    challenged_gains = [m / s for m, s in zip(more, srcr) if s <= srcr_median and s > 0]
    good_gains = [m / s for m, s in zip(more, srcr) if s > srcr_median]
    summary = {
        "mean_gain_challenged": (float(np.mean(challenged_gains))
                                 if challenged_gains else float("nan")),
        "mean_gain_good": float(np.mean(good_gains)) if good_gains else float("nan"),
        "fraction_above_diagonal_more": float(np.mean([m > s for m, s in zip(more, srcr)])),
        "fraction_above_diagonal_exor": float(np.mean([e > s for e, s in zip(exor, srcr)])),
    }
    report = (
        "Figure 4-3: scatter of per-pair throughput vs Srcr\n"
        f"mean MORE/Srcr gain for challenged flows: {summary['mean_gain_challenged']:.2f}x\n"
        f"mean MORE/Srcr gain for good flows:       {summary['mean_gain_good']:.2f}x\n"
        f"fraction of pairs above the diagonal (MORE): "
        f"{summary['fraction_above_diagonal_more']:.2f}\n"
        f"fraction of pairs above the diagonal (ExOR): "
        f"{summary['fraction_above_diagonal_exor']:.2f}"
    )
    series = {"Srcr": srcr, "MORE": more, "ExOR": exor}
    return FigureResult(name="figure_4_3", series=series, summary=summary, report=report,
                        extras={"pairs": cell.meta["pairs"]})


# --------------------------------------------------------------------------- #
# Figure 4-4: spatial reuse on 4-hop paths
# --------------------------------------------------------------------------- #

def figure_4_4(spec: ScenarioSpec | None = None) -> FigureResult:
    """Throughput on multi-hop paths with spatial reuse (paper Fig 4-4).

    Paper result: for 4-hop flows whose last hop can transmit concurrently
    with the first, MORE's median throughput is about 50% above ExOR.
    """
    spec, (cell,) = _run(spec, "fig_4_4")
    series = cell.series
    pairs = cell.meta["pairs"]
    summary = {
        "more_over_exor_median_gain": median_gain(series["MORE"], series["ExOR"]),
        "more_over_srcr_median_gain": median_gain(series["MORE"], series["Srcr"]),
        "pair_count": float(len(pairs)),
    }
    report = (
        f"Figure 4-4: spatial reuse ({spec.workload.params['path_hops']}-hop paths, "
        f"{len(pairs)} pairs)\n"
        + _format_protocol_table(series)
        + f"\nMORE/ExOR median gain: {summary['more_over_exor_median_gain']:.2f}x"
    )
    return FigureResult(name="figure_4_4", series=series, summary=summary, report=report,
                        extras={"pairs": pairs})


# --------------------------------------------------------------------------- #
# Figure 4-5: multiple concurrent flows
# --------------------------------------------------------------------------- #

def figure_4_5(spec: ScenarioSpec | None = None) -> FigureResult:
    """Average per-flow throughput vs number of concurrent flows (paper Fig 4-5).

    Paper result: MORE and ExOR stay above Srcr but their advantage shrinks
    as congestion grows; opportunistic routing does not add capacity.
    """
    spec, cells = _run(spec, "fig_4_5")
    # One cell per flow count (the ``workload.flow_count`` axis); every cell
    # runs prefixes of the same flow sets, so the series is comparable
    # across counts.
    flow_counts = [cell.meta["flow_count"] for cell in cells]
    series = {protocol: [cell.summary[f"{protocol}_mean"] for cell in cells]
              for protocol in spec.protocols}
    summary = {
        f"{protocol.lower()}_single_flow": series[protocol][0] for protocol in series
    }
    summary.update({
        f"{protocol.lower()}_at_{flow_counts[-1]}_flows": series[protocol][-1]
        for protocol in series
    })
    lines = ["Figure 4-5: average per-flow throughput vs concurrent flows (pkt/s)",
             f"{'flows':<6}" + "".join(f"{name:>10}" for name in series)]
    for index, flow_count in enumerate(flow_counts):
        lines.append(f"{flow_count:<6}" + "".join(f"{series[name][index]:10.1f}"
                                                  for name in series))
    return FigureResult(name="figure_4_5", series=series,
                        summary=summary, report="\n".join(lines),
                        extras={"flow_sets": cells[-1].meta["flow_sets"]})


# --------------------------------------------------------------------------- #
# Figure 4-6: Srcr with autorate vs opportunistic routing at 11 Mb/s
# --------------------------------------------------------------------------- #

def figure_4_6(spec: ScenarioSpec | None = None) -> FigureResult:
    """Autorate comparison (paper Fig 4-6).

    Paper result: MORE and ExOR at a fixed 11 Mb/s keep their advantage over
    Srcr even when Srcr uses Onoe autorate; autorate often does no better
    than the fixed maximum rate.
    """
    _, (cell,) = _run(spec, "fig_4_6")
    series = {token.replace("/auto", " autorate"): values
              for token, values in cell.series.items()}
    summary = {
        "more_over_srcr_autorate_median_gain": median_gain(series["MORE"],
                                                           series["Srcr autorate"]),
        "exor_over_srcr_autorate_median_gain": median_gain(series["ExOR"],
                                                           series["Srcr autorate"]),
        "autorate_over_fixed_median_gain": median_gain(series["Srcr autorate"],
                                                       series["Srcr"]),
    }
    report = (
        "Figure 4-6: opportunistic routing vs Srcr with autorate (11 Mb/s, pkt/s)\n"
        + _format_protocol_table(series)
        + "\nMORE / Srcr-autorate median gain: "
        + f"{summary['more_over_srcr_autorate_median_gain']:.2f}x"
    )
    return FigureResult(name="figure_4_6", series=series, summary=summary, report=report,
                        extras={"pairs": cell.meta["pairs"]})


# --------------------------------------------------------------------------- #
# Figure 4-7: batch size sensitivity
# --------------------------------------------------------------------------- #

def figure_4_7(spec: ScenarioSpec | None = None) -> FigureResult:
    """Throughput sensitivity to the batch size K (paper Fig 4-7).

    Paper result: MORE is nearly insensitive to K; ExOR degrades noticeably
    for small batches (K = 8).
    """
    _, cells = _run(spec, "fig_4_7")
    series: dict[str, list[float]] = {}
    medians: dict[str, dict[int, float]] = {"MORE": {}, "ExOR": {}}
    for cell in cells:  # one per value of the ``run.batch_size`` axis
        batch_size = cell.axes["run.batch_size"]
        for protocol in medians:
            series[f"{protocol} K={batch_size}"] = cell.series[protocol]
            medians[protocol][batch_size] = median(cell.series[protocol])
    more_spread = _relative_spread(list(medians["MORE"].values()))
    exor_spread = _relative_spread(list(medians["ExOR"].values()))
    summary = {
        "more_relative_spread": more_spread,
        "exor_relative_spread": exor_spread,
        "exor_k8_vs_k32": (medians["ExOR"][8] / medians["ExOR"][32]
                           if 8 in medians["ExOR"] and medians["ExOR"].get(32, 0) > 0
                           else float("nan")),
        "more_k8_vs_k32": (medians["MORE"][8] / medians["MORE"][32]
                           if 8 in medians["MORE"] and medians["MORE"].get(32, 0) > 0
                           else float("nan")),
    }
    lines = ["Figure 4-7: batch size sensitivity (median pkt/s)",
             f"{'K':<6}{'MORE':>10}{'ExOR':>10}"]
    for batch_size in medians["MORE"]:
        lines.append(f"{batch_size:<6}{medians['MORE'][batch_size]:10.1f}"
                     f"{medians['ExOR'][batch_size]:10.1f}")
    lines.append(f"relative spread of medians: MORE {more_spread:.2f}, ExOR {exor_spread:.2f}")
    return FigureResult(name="figure_4_7", series=series, summary=summary,
                        report="\n".join(lines),
                        extras={"medians": medians, "pairs": cells[0].meta["pairs"]})


def _relative_spread(values: list[float]) -> float:
    """(max - min) / max of a list of medians; 0 means perfectly insensitive."""
    if not values or max(values) <= 0:
        return float("nan")
    return (max(values) - min(values)) / max(values)


# --------------------------------------------------------------------------- #
# Table 4.1: computational cost of packet operations
# --------------------------------------------------------------------------- #

def table_4_1(batch_size: int = 32, packet_size: int = 1500, iterations: int = 50,
              seed: int = 0, rounds: int = 5) -> FigureResult:
    """Micro-benchmark of MORE's packet operations (paper Table 4.1).

    Paper numbers on a Celeron 800 MHz: independence check 10 us, coding at
    the source 270 us, decoding 260 us per 1500 B packet at K=32.  Absolute
    values differ on modern hardware; the structural claims (coding and
    decoding cost are comparable and dominate, the independence check is an
    order of magnitude cheaper, cost scales with K) are checked instead.

    Decoding is everything the destination does for a batch — K inserts and
    the payload back-substitution they defer to ``decode()`` — per packet.
    Re-coding is what a forwarder does per innovative arrival when it
    transmits as often as it hears: fold the packet in, hand the pre-coded
    packet out and pre-code the next one (Section 3.2.3(c)).  Both coding
    rows include the payload product a transmitted packet defers to its
    first read (:class:`repro.coding.packet.CodedPacket`): the timed loops
    read ``payload``.

    Every quantity is measured ``rounds`` times and the best (minimum)
    per-operation time is kept — the standard best-of-N discipline, so a
    scheduler preemption or a busy sibling process inflates individual
    rounds without distorting the reported figure.
    """
    rng = np.random.default_rng(seed)
    batch = make_batch(batch_size=batch_size, packet_size=packet_size, rng=rng)
    stream = CoefficientStream(rng)
    encoder = SourceEncoder(batch, stream)

    def best_of(measure) -> float:
        """Minimum per-operation time (in us) over ``rounds`` measurements."""
        return min(measure() for _ in range(max(1, rounds))) * 1e6

    def measure_coding() -> float:
        # repro: allow-DET001 — Figure-11 harness measures real CPU cost
        start = time.perf_counter()
        for _ in range(iterations):
            # The bytes are built on first read: time what a radio would
            # put on the air, not the code-vector draw alone.
            encoder.next_packet().payload
        return (time.perf_counter() - start) / iterations  # repro: allow-DET001

    coding_us = best_of(measure_coding)

    def measure_decoding() -> float:
        decoder = BatchDecoder(batch_size=batch_size, packet_size=packet_size)
        packets = iter(encoder.next_packets(2 * batch_size))
        # repro: allow-DET001 — Figure-11 harness measures real CPU cost
        start = time.perf_counter()
        while not decoder.is_complete:
            decoder.add_packet(next(packets))
        decoder.decode()
        return (time.perf_counter() - start) / batch_size  # repro: allow-DET001

    decoding_us = best_of(measure_decoding)

    def measure_recoding() -> float:
        forwarder = ForwarderEncoder(batch_size, packet_size, stream)
        packets = encoder.next_packets(batch_size)
        # repro: allow-DET001 — Figure-11 harness measures real CPU cost
        start = time.perf_counter()
        for packet in packets:
            forwarder.add_packet(packet)
            forwarder.next_packet().payload
        return (time.perf_counter() - start) / batch_size  # repro: allow-DET001

    recoding_us = best_of(measure_recoding)

    # The independence check is measured against a half-full buffer — the
    # steady state a forwarder sees mid-batch — using probes that do reduce
    # against stored rows.
    check_buffer = BatchBuffer(batch_size, packet_size, track_payloads=False)
    for packet in encoder.next_packets(max(1, batch_size // 2)):
        check_buffer.add(packet)
    probes = [packet.code_vector for packet in encoder.next_packets(iterations)]

    def measure_check() -> float:
        # repro: allow-DET001 — Figure-11 harness measures real CPU cost
        start = time.perf_counter()
        for probe in probes:
            check_buffer.is_innovative(probe)
        return (time.perf_counter() - start) / len(probes)  # repro: allow-DET001

    independence_us = best_of(measure_check)

    series = {
        "independence_check_us": [independence_us],
        "coding_at_source_us": [coding_us],
        "decoding_us": [decoding_us],
        "recoding_at_forwarder_us": [recoding_us],
    }
    summary = {
        "independence_check_us": independence_us,
        "coding_at_source_us": coding_us,
        "decoding_us": decoding_us,
        "recoding_at_forwarder_us": recoding_us,
        "coding_over_check_ratio": (coding_us / independence_us
                                    if independence_us > 0 else float("inf")),
        "throughput_mbps_bound": packet_size * 8 / coding_us if coding_us > 0 else float("inf"),
    }
    report = (
        f"Table 4.1: packet operation cost (K={batch_size}, {packet_size} B)\n"
        f"independence check: {independence_us:8.1f} us   (paper: 10 us)\n"
        f"coding at source:   {coding_us:8.1f} us   (paper: 270 us)\n"
        f"decoding:           {decoding_us:8.1f} us   (paper: 260 us)\n"
        f"re-coding at relay: {recoding_us:8.1f} us   (paper: pre-coded, Section 3.2.3(c))\n"
        f"implied coding throughput bound: {summary['throughput_mbps_bound']:.1f} Mb/s"
    )
    return FigureResult(name="table_4_1", series=series, summary=summary, report=report)


# --------------------------------------------------------------------------- #
# Figure 5-1 / Section 5.7: ETX-order vs EOTX-order cost gap
# --------------------------------------------------------------------------- #

def figure_5_1(spec: ScenarioSpec | None = None,
               bridge_deliveries: tuple[float, ...] = (0.3, 0.2, 0.1, 0.06),
               branch_count: int = 8) -> FigureResult:
    """ETX vs EOTX ordering gap (paper Fig 5-1 and Section 5.7).

    Paper result: on the contrived topology the gap grows without bound as
    the bridge link weakens (limit = number of C branches); on the testbed
    more than 40% of flows are unaffected and the median gap of affected
    flows is about 0.2%.  ``spec`` describes the testbed survey; the bridge
    curve is computed here, over deliveries above the 0.05 usable-link
    threshold (a weaker bridge is no link at all to Algorithm 1).
    """
    analytic = {p: figure_5_1_gap(p, branch_count) for p in bridge_deliveries}
    measured = {}
    for p in bridge_deliveries:
        topology = cost_gap_topology(bridge_delivery=p, branch_count=branch_count)
        destination = topology.node_count - 1
        results = gap_survey(topology, [(0, destination)])
        measured[p] = results[0].gap

    _, (testbed,) = _run(spec, "fig_5_1")

    series = {
        "bridge_delivery": list(bridge_deliveries),
        "analytic_gap": [analytic[p] for p in bridge_deliveries],
        "measured_gap": [measured[p] for p in bridge_deliveries],
    }
    summary = {
        "max_gap": max(measured.values()),
        "testbed_fraction_unaffected": testbed.summary["fraction_unaffected"],
        "testbed_median_gap_affected": testbed.summary["median_gap_affected"],
    }
    lines = [f"Figure 5-1: ETX vs EOTX cost gap (k={branch_count} branches)",
             f"{'p':<8}{'analytic':>10}{'measured':>10}"]
    for p in bridge_deliveries:
        lines.append(f"{p:<8.2f}{analytic[p]:10.2f}{measured[p]:10.2f}")
    lines.append(
        f"testbed: {summary['testbed_fraction_unaffected'] * 100:.0f}% of flows unaffected, "
        f"median gap of affected flows {summary['testbed_median_gap_affected'] * 100:.2f}%"
    )
    return FigureResult(name="figure_5_1", series=series, summary=summary,
                        report="\n".join(lines),
                        extras={"pairs": testbed.meta["pairs"]})


ALL_FIGURES = {
    "figure_4_2": figure_4_2,
    "figure_4_3": figure_4_3,
    "figure_4_4": figure_4_4,
    "figure_4_5": figure_4_5,
    "figure_4_6": figure_4_6,
    "figure_4_7": figure_4_7,
    "table_4_1": table_4_1,
    "figure_5_1": figure_5_1,
}
