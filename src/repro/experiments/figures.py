"""The paper's results as one table, ``FIGURES``, and ``run_figure`` to run a row.

A row is the whole definition of one result of Chapter 4 (or the Section
5.7 gap survey): the preset that describes the experiment
(:mod:`repro.scenarios.presets`; what tier-1 runs and ``results/figure_*.txt``
records), the ``paper`` overlay that scales it to the paper's sizes, a
*view* that computes the statistics the paper quotes and a text report, and
the *claims* — the paper's value of a statistic and the band tier-1 holds it
to (``benchmarks/test_figures.py``; tabulated in ``docs/paper-map.md``).

A view simulates nothing: it is a pure function of the spec and the
:class:`~repro.scenarios.execute.CellResult` of each of its cells.  The
cells come from :func:`run_figure` alone, through the sweep orchestrator
(store, pool, retry, kill-resume), so two views of one preset (Figures 4-2
and 4-3) simulate once; ``python -m repro figure`` is its front end.
``table_4_1`` and the bridge curve of ``figure_5_1`` measure no scenario and
are computed here directly.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.coding.buffer import BatchBuffer
from repro.coding.decoder import BatchDecoder
from repro.coding.encoder import ForwarderEncoder, SourceEncoder
from repro.coding.packet import CodedPacket, make_batch
from repro.experiments.stats import median, median_gain, pairwise_gains, summarize
from repro.gf.arithmetic import CoefficientStream
from repro.metrics.gap import figure_5_1_gap, gap_survey, summarize_gaps
from repro.topology.generator import cost_gap_topology

if TYPE_CHECKING:  # pragma: no cover - import cycle: scenarios uses workloads
    from pathlib import Path

    from repro.scenarios.execute import CellResult
    from repro.scenarios.spec import ScenarioSpec


@dataclass
class FigureResult:
    """Output of one figure view."""

    name: str
    series: dict[str, list[float]]
    summary: dict[str, float]
    report: str
    extras: dict[str, object] = field(default_factory=dict)
    #: How many cells :func:`run_figure` had to simulate (0: all from the store).
    computed_cells: int = 0


def _pool_seeds(cells: list[CellResult]) -> list[CellResult]:
    """One cell per sweep point: the cells that differ only in seed, pooled.

    Series and list-valued ``meta`` entries (pairs, flow sets) are joined in
    seed order; per-cell summaries do not pool and are dropped.  The store
    does not keep the order of a cell's series: a view that tabulates them
    names them itself (``spec.protocols``).
    """
    groups: dict[tuple, list[CellResult]] = {}
    for cell in cells:
        groups.setdefault(tuple(cell.axes.items()), []).append(cell)
    pooled = []
    for group in groups.values():
        group = sorted(group, key=lambda cell: cell.seed)
        first = group[0]
        pooled.append(replace(
            first, summary={},
            series={name: [value for cell in group for value in cell.series[name]]
                    for name in first.series},
            meta={key: ([item for cell in group for item in cell.meta[key]]
                        if isinstance(value, list) else value)
                  for key, value in first.meta.items()}))
    return pooled


def _srcr_zero_pairs(srcr: list[float]) -> tuple[int, str]:
    """How many pairs the per-pair MORE/Srcr ratios leave out because Srcr
    delivered nothing, and the report line that says so (none when 0)."""
    count = sum(1 for throughput in srcr if throughput <= 0)
    note = "\npairs left out of the per-pair ratios (Srcr delivered nothing): "
    return count, f"{note}{count}" if count else ""


def _ratio(top: float, bottom: float) -> float:
    """``top / bottom`` for non-negative statistics; huge, not an error, over 0."""
    return top / max(bottom, 1e-9)


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

def figure_4_2(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Unicast throughput comparison over random pairs (paper Fig 4-2).

    Paper result: MORE median 22% above ExOR, 95% above Srcr; some pairs gain
    10-12x over Srcr; MORE's 10th percentile above 50 pkt/s vs Srcr's 10.
    """
    (cell,) = _pool_seeds(cells)
    series = {protocol: cell.series[protocol] for protocol in spec.protocols}
    max_gain = max(pairwise_gains(series["MORE"], series["Srcr"]), default=float("nan"))
    more_over_srcr = median_gain(series["MORE"], series["Srcr"])
    zero_pairs, zero_line = _srcr_zero_pairs(series["Srcr"])
    summary = {
        "more_over_exor_median_gain": median_gain(series["MORE"], series["ExOR"]),
        "more_over_srcr_median_gain": more_over_srcr,
        "more_p10": summarize(series["MORE"]).p10,
        "srcr_p10": summarize(series["Srcr"]).p10,
        "max_pairwise_gain_over_srcr": max_gain,
        # Challenged pairs gain far more than the median pair: above 1.
        "max_pairwise_over_median_gain": _ratio(max_gain, more_over_srcr),
        "srcr_zero_pairs": float(zero_pairs),
    }
    report = (
        "Figure 4-2: unicast throughput CDF (pkt/s)\n"
        + _format_protocol_table(series)
        + f"\nMORE/ExOR median gain: {summary['more_over_exor_median_gain']:.2f}x"
        + f"\nMORE/Srcr median gain: {summary['more_over_srcr_median_gain']:.2f}x"
        + f"\nmax per-pair MORE/Srcr gain: {summary['max_pairwise_gain_over_srcr']:.1f}x"
        + zero_line
    )
    return FigureResult(name="figure_4_2", series=series, summary=summary, report=report,
                        extras={"pairs": cell.meta["pairs"]})


# --------------------------------------------------------------------------- #
# Figure 4-3: scatter of per-pair throughput, opportunistic vs Srcr
# --------------------------------------------------------------------------- #

def figure_4_3(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Per-pair scatter MORE-vs-Srcr and ExOR-vs-Srcr (paper Fig 4-3).

    Paper result: points far above the 45-degree line are the challenged
    (low-Srcr-throughput) flows; good Srcr flows do not improve much.  A
    second view of the ``fig_4_2`` cells.
    """
    (cell,) = _pool_seeds(cells)
    srcr = cell.series["Srcr"]
    more = cell.series["MORE"]
    exor = cell.series["ExOR"]
    # Split pairs into challenged (below-median Srcr throughput) and good.
    srcr_median = median(srcr)
    challenged_gains = [m / s for m, s in zip(more, srcr) if s <= srcr_median and s > 0]
    good_gains = [m / s for m, s in zip(more, srcr) if s > srcr_median]
    mean_challenged = float(np.mean(challenged_gains)) if challenged_gains else float("nan")
    mean_good = float(np.mean(good_gains)) if good_gains else float("nan")
    zero_pairs, zero_line = _srcr_zero_pairs(srcr)
    summary = {
        "mean_gain_challenged": mean_challenged,
        "mean_gain_good": mean_good,
        # The asymmetry the scatter shows: above 1.
        "challenged_over_good_gain": _ratio(mean_challenged, mean_good),
        "srcr_zero_pairs": float(zero_pairs),
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
        + zero_line
    )
    series = {"Srcr": srcr, "MORE": more, "ExOR": exor}
    return FigureResult(name="figure_4_3", series=series, summary=summary, report=report,
                        extras={"pairs": cell.meta["pairs"]})


# --------------------------------------------------------------------------- #
# Figure 4-4: spatial reuse on 4-hop paths
# --------------------------------------------------------------------------- #

def figure_4_4(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Throughput on multi-hop paths with spatial reuse (paper Fig 4-4).

    Paper result: for 4-hop flows whose last hop can transmit concurrently
    with the first, MORE's median throughput is about 50% above ExOR.
    """
    (cell,) = _pool_seeds(cells)
    series = {protocol: cell.series[protocol] for protocol in spec.protocols}
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

def figure_4_5(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Average per-flow throughput vs number of concurrent flows (paper Fig 4-5).

    Paper result: MORE and ExOR stay above Srcr but their advantage shrinks
    as congestion grows; opportunistic routing does not add capacity.
    """
    # One cell per flow count (the ``workload.flow_count`` axis); every cell
    # runs prefixes of the same flow sets, so the series is comparable
    # across counts.
    cells = _pool_seeds(cells)
    flow_counts = [cell.meta["flow_count"] for cell in cells]
    series = {protocol: [summarize(cell.series[protocol]).mean for cell in cells]
              for protocol in spec.protocols}
    summary = {
        f"{protocol.lower()}_single_flow": series[protocol][0] for protocol in series
    }
    summary.update({
        f"{protocol.lower()}_at_{flow_counts[-1]}_flows": series[protocol][-1]
        for protocol in series
    })
    # No added capacity: every flow running over a single flow is below 1.
    summary.update({
        f"{protocol.lower()}_loaded_over_single_flow": _ratio(values[-1], values[0])
        for protocol, values in series.items()
    })
    advantage = [_ratio(more, srcr) for more, srcr in zip(series["MORE"], series["Srcr"])]
    summary["more_over_srcr_single_flow"] = advantage[0]
    # At most 1 when MORE's advantage over Srcr shrinks under congestion.
    summary["more_over_srcr_advantage_change"] = _ratio(advantage[-1], advantage[0])
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

def figure_4_6(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Autorate comparison (paper Fig 4-6).

    Paper result: MORE and ExOR at a fixed 11 Mb/s keep their advantage over
    Srcr even when Srcr uses Onoe autorate; autorate often does no better
    than the fixed maximum rate.
    """
    (cell,) = _pool_seeds(cells)
    series = {token.replace("/auto", " autorate"): cell.series[token]
              for token in spec.protocols}
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

def figure_4_7(spec: ScenarioSpec, cells: list[CellResult]) -> FigureResult:
    """Throughput sensitivity to the batch size K (paper Fig 4-7).

    Paper result: MORE is nearly insensitive to K; ExOR degrades noticeably
    for small batches (K = 8).
    """
    cells = _pool_seeds(cells)
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
        **{f"{protocol.lower()}_k8_vs_k32": (by_k[8] / by_k[32]
                                             if 8 in by_k and by_k.get(32, 0) > 0
                                             else float("nan"))
           for protocol, by_k in medians.items()},
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
    order of magnitude cheaper, cost scales with K) are what to read it for;
    being wall-clock, the table is reported and never gated.

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
        start = time.perf_counter()
        for _ in range(iterations):
            # The bytes are built on first read: time what a radio would
            # put on the air, not the code-vector draw alone.
            encoder.next_packet().payload
        return (time.perf_counter() - start) / iterations

    coding_us = best_of(measure_coding)

    def measure_decoding() -> float:
        decoder = BatchDecoder(batch_size=batch_size, packet_size=packet_size)
        packets = iter(encoder.next_packets(2 * batch_size))
        start = time.perf_counter()
        while not decoder.is_complete:
            decoder.add_packet(next(packets))
        decoder.decode()
        return (time.perf_counter() - start) / batch_size

    decoding_us = best_of(measure_decoding)

    def measure_recoding() -> float:
        forwarder = ForwarderEncoder(batch_size, packet_size, stream)
        packets = encoder.next_packets(batch_size)
        start = time.perf_counter()
        for packet in packets:
            forwarder.add_packet(packet)
            forwarder.next_packet().payload
        return (time.perf_counter() - start) / batch_size

    recoding_us = best_of(measure_recoding)

    # The independence check is measured against a half-full buffer — the
    # steady state a forwarder sees mid-batch — using probes that do reduce
    # against stored rows.  The check never reads payload bytes, so the
    # buffer keeps none (width 0).
    check_buffer = BatchBuffer(batch_size, 0)
    for packet in encoder.next_packets(max(1, batch_size // 2)):
        check_buffer.add(CodedPacket(packet.code_vector, b""))
    probes = [packet.code_vector for packet in encoder.next_packets(iterations)]

    def measure_check() -> float:
        start = time.perf_counter()
        for probe in probes:
            check_buffer.is_innovative(probe)
        return (time.perf_counter() - start) / len(probes)

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

def figure_5_1(spec: ScenarioSpec, cells: list[CellResult],
               bridge_deliveries: tuple[float, ...] = (0.3, 0.2, 0.1, 0.06),
               branch_count: int = 8) -> FigureResult:
    """ETX vs EOTX ordering gap (paper Fig 5-1 and Section 5.7).

    Paper result: on the contrived topology the gap grows without bound as
    the bridge link weakens (limit = number of C branches); on the testbed
    more than 40% of flows are unaffected and the median gap of affected
    flows is about 0.2%.  ``cells`` hold the testbed survey; the bridge
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

    (testbed,) = _pool_seeds(cells)
    gaps = summarize_gaps(testbed.series["gap"])

    series = {
        "bridge_delivery": list(bridge_deliveries),
        "analytic_gap": [analytic[p] for p in bridge_deliveries],
        "measured_gap": [measured[p] for p in bridge_deliveries],
    }
    summary = {
        "max_gap": max(measured.values()),
        "testbed_fraction_unaffected": gaps["fraction_unaffected"],
        "testbed_median_gap_affected": gaps["median_gap_affected"],
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


# --------------------------------------------------------------------------- #
# The table: one row per result of the paper
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Claim:
    """A statistic the paper quotes (a key of the view's ``summary``), its
    value as the paper states it, and the closed band ``[low, high]`` tier-1
    holds it to (``inf``: one side claimed).  ``deviation`` records where the
    committed preset-scale result disagrees with the paper and the suspected
    cause: a finding for ROADMAP item 1(c), never a reason to widen the band.
    """

    id: str
    statistic: str
    paper: str
    low: float
    high: float
    deviation: str = ""

    def holds(self, summary: dict[str, float]) -> bool:
        return self.low <= summary[self.statistic] <= self.high

    def line(self, summary: dict[str, float]) -> str:
        verdict = "ok" if self.holds(summary) else "out-of-band"
        return (f"{self.id}: {self.statistic} = {summary[self.statistic]:.3g} "
                f"in [{self.low:g}, {self.high:g}], paper: {self.paper} -- {verdict}")


@dataclass(frozen=True)
class Figure:
    """One row of :data:`FIGURES`.  ``preset`` is ``None`` when the result
    measures no scenario; ``view(spec, cells)`` is pure; ``paper`` holds
    dotted overrides, a tuple value replacing the sweep axis of its path."""

    name: str
    preset: str | None
    view: Callable[[Any, list[Any]], FigureResult]
    paper: dict[str, Any] = field(default_factory=dict)
    claims: tuple[Claim, ...] = ()

    def at_paper_scale(self, spec: ScenarioSpec) -> ScenarioSpec:
        """``spec`` (this row's preset) with the ``paper`` overlay applied."""
        axes = {path: value for path, value in self.paper.items() if isinstance(value, tuple)}
        spec = spec.with_overrides({path: value for path, value in self.paper.items()
                                    if path not in axes})
        spec.sweep.update(axes)
        return spec


def _paper(**samples: int) -> dict[str, Any]:
    """The paper's scale: its workload sample sizes and its 5 MB transfer
    (3495 packets of 1500 B, and the time to finish one)."""
    return {**{f"workload.{name}": size for name, size in samples.items()},
            "run.total_packets": 3495, "run.max_duration": 600.0}


_INF = math.inf

FIGURES: dict[str, Figure] = {row.name: row for row in (
    Figure("figure_4_2", "fig_4_2", figure_4_2, _paper(count=200), (
        Claim("fig_4_2.more_over_exor", "more_over_exor_median_gain", "1.22x", 1.0, 2.0),
        Claim("fig_4_2.more_over_srcr", "more_over_srcr_median_gain", "1.95x", 1.2, 4.0),
        Claim("fig_4_2.challenged_gain_most", "max_pairwise_over_median_gain",
              "10-12x at most, over a 1.95x median", 1.0, _INF,
              "max per-pair gain 2.9x against 10-12x; suspect: deliveries clipped to "
              "[0.05, 0.90] and stragglers reconnected leave no dead-spot pair"),
    )),
    Figure("figure_4_3", "fig_4_2", figure_4_3, _paper(count=200), (
        Claim("fig_4_3.challenged_over_good", "challenged_over_good_gain",
              "challenged pairs far above the diagonal, good pairs on it", 1.0, _INF,
              "mean gain 1.62x on challenged against 1.40x on good pairs, a far weaker "
              "split; suspect: symmetric deliveries spare Srcr its ack-path penalty"),
        Claim("fig_4_3.challenged_gain", "mean_gain_challenged", "well above 1x", 1.2, _INF),
        Claim("fig_4_3.above_diagonal", "fraction_above_diagonal_more", "most pairs", 0.5, 1.0),
    )),
    Figure("figure_4_4", "fig_4_4", figure_4_4, _paper(count=20), (
        Claim("fig_4_4.more_over_exor", "more_over_exor_median_gain", "about 1.5x", 1.0, _INF,
              "1.11x against 1.45-1.5x over five pairs: the direction holds, the margin "
              "does not; no layer named yet"),
        Claim("fig_4_4.more_over_srcr", "more_over_srcr_median_gain", "above 1x", 1.0, _INF),
    )),
    Figure("figure_4_5", "fig_4_5", figure_4_5, _paper(set_count=40), (
        Claim("fig_4_5.more_no_capacity", "more_loaded_over_single_flow", "falls", 0.0, 1.0),
        Claim("fig_4_5.exor_no_capacity", "exor_loaded_over_single_flow", "falls", 0.0, 1.0),
        Claim("fig_4_5.more_ahead_alone", "more_over_srcr_single_flow", "above 1x", 1.0, _INF),
        Claim("fig_4_5.advantage_shrinks", "more_over_srcr_advantage_change",
              "shrinks, MORE stays ahead", 0.0, 1.0,
              "the advantage inverts: Srcr ahead at 3 and 4 flows (23.1 against 15.9 "
              "pkt/s); suspects: prefix sets of two samples, and a MAC that redraws its "
              "backoff when the medium is busy at expiry where 802.11 DCF freezes it"),
    )),
    Figure("figure_4_6", "fig_4_6", figure_4_6, _paper(count=40), (
        Claim("fig_4_6.more_over_autorate", "more_over_srcr_autorate_median_gain",
              "MORE stays ahead of Srcr with autorate", 1.1, _INF),
        Claim("fig_4_6.autorate_vs_fixed", "autorate_over_fixed_median_gain",
              "autorate no better than fixed 11 Mb/s", 0.0, 1.5),
    )),
    Figure("figure_4_7", "fig_4_7", figure_4_7,
           {**_paper(count=40), "run.batch_size": (8, 16, 32, 64, 128)}, (
        Claim("fig_4_7.more_flat_in_k", "more_k8_vs_k32", "about 1 (flat in K)", 0.6, _INF,
              "spread of medians MORE 0.31 against ExOR 0.16, where the paper has MORE "
              "flat and ExOR hurt at K = 8; suspects: four pairs per K, and an idealised "
              "scheduler that understates ExOR's per-batch cost"),
    )),
    # Wall-clock, so no claims: reported by `python -m repro figure table_4_1`,
    # gated nowhere; `python3 -m bench --trace 1` measures its layers normalised.
    Figure("table_4_1", None, lambda _spec, _cells: table_4_1()),
    Figure("figure_5_1", "fig_5_1", figure_5_1, _paper(count=100), (
        Claim("fig_5_1.gap_unbounded", "max_gap", "unbounded (limit: 8 branches)", 2.0, _INF),
        Claim("fig_5_1.testbed_gap", "testbed_median_gap_affected", "0.002", 0.0, 0.10),
    )),
)}


def run_figure(name: str, paper_scale: bool = False, workers: int = 1,
               results_dir: str | Path | None = None) -> FigureResult:
    """Run one row: its preset (at ``paper_scale``, under its ``paper``
    overlay) through the sweep orchestrator — store, pool and resume under
    ``results_dir``, no store when ``None`` — then its view over the cells."""
    from repro.experiments.orchestrator.engine import run_sweep
    from repro.scenarios.presets import get_preset

    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; expected one of {list(FIGURES)}")
    figure = FIGURES[name]
    if figure.preset is None:
        return figure.view(None, [])
    spec = get_preset(figure.preset)
    if paper_scale:
        spec = figure.at_paper_scale(spec)
    sweep = run_sweep(spec, workers=workers, results_dir=results_dir)
    result = figure.view(spec, sweep.cells)
    result.computed_cells = sweep.computed_cells
    return result
