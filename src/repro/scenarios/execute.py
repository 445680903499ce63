"""Run one :class:`~repro.scenarios.spec.ScenarioCell` and shape its result.

A cell is completely self-contained (topology spec + workload spec + run
config + one seed), so this module is the unit that
:mod:`repro.experiments.orchestrator` ships to worker processes and the
one executor behind the figure views of :mod:`repro.experiments.figures`.
Results are plain data (:class:`CellResult`) that round-trips through JSON
for the ``results/`` cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.experiments.runner import RunConfig, run_flows, run_single_flow
from repro.experiments.stats import median_gain, summarize
from repro.scenarios.build import build_flow_sets, build_pairs, build_topology
from repro.scenarios.spec import PROTOCOL_TOKENS, ScenarioCell


@dataclass
class CellResult:
    """Outcome of one cell: per-protocol series plus summary statistics."""

    scenario: str
    mode: str
    seed: int
    axes: dict[str, Any]
    key: str
    series: dict[str, list[float]]
    summary: dict[str, float]
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "axes": dict(self.axes),
            "key": self.key,
            "series": {name: list(values) for name, values in self.series.items()},
            "summary": dict(self.summary),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellResult":
        return cls(
            scenario=data["scenario"],
            mode=data["mode"],
            seed=int(data["seed"]),
            axes=dict(data.get("axes", {})),
            key=data["key"],
            series={name: list(values) for name, values in data["series"].items()},
            summary=dict(data.get("summary", {})),
            meta=dict(data.get("meta", {})),
        )

    def report(self) -> str:
        """A compact text table of this cell's series."""
        label = " ".join(f"{path}={value}" for path, value in self.axes.items())
        header = f"[{self.scenario}] seed={self.seed}" + (f" {label}" if label else "")
        lines = [header,
                 f"{'series':<14} {'median':>8} {'mean':>8} {'p10':>8} {'p90':>8} {'n':>4}"]
        for name, values in self.series.items():
            stats = summarize(values)
            lines.append(f"{name:<14} {stats.median:8.2f} {stats.mean:8.2f} "
                         f"{stats.p10:8.2f} {stats.p90:8.2f} {stats.count:4d}")
        gains = {k: v for k, v in self.summary.items() if k.endswith("_median_gain")}
        for key, value in gains.items():
            lines.append(f"{key}: {value:.2f}x")
        return "\n".join(lines)


def _resolve_protocol(token: str, base: RunConfig) -> tuple[str, RunConfig]:
    """Map a protocol token to (runner protocol name, per-protocol config).

    Looked up in :data:`~repro.scenarios.spec.PROTOCOL_TOKENS`, which the
    spec was validated against when it was built: plain tokens pass through
    with the shared config, ``Srcr/auto`` is Srcr with autorate on.
    """
    protocol, overrides = PROTOCOL_TOKENS[token]
    return protocol, replace(base, **overrides) if overrides else base


def _abort_notes(results) -> list[str]:
    """Human-readable notes for every aborted flow in ``results``."""
    return [f"flow {result.source}->{result.destination}: {result.abort_reason}"
            for result in results if result.aborted]


def _throughput_cell(cell: ScenarioCell) -> CellResult:
    """Every pair as a single flow under each protocol (the Fig 4-2 method).

    The same pairs and the same RNG seeds are reused across protocols,
    mirroring the paper's back-to-back runs.
    """
    spec = cell.scenario
    topology = build_topology(spec.topology)
    pairs = build_pairs(spec.workload, topology, cell.seed)
    base = spec.run_config(cell.seed)
    environment = spec.environment()
    series: dict[str, list[float]] = {}
    aborted: dict[str, list[str]] = {}
    for token in spec.protocols:
        protocol, config = _resolve_protocol(token, base)
        results = [run_single_flow(topology, protocol, source, destination, config=config,
                                   environment=environment)
                   for source, destination in pairs]
        series[token] = [result.throughput_pkts for result in results]
        notes = _abort_notes(results)
        if notes:
            aborted[token] = notes
    summary: dict[str, float] = {}
    for token, values in series.items():
        summary[f"{token}_median"] = summarize(values).median
    for token, notes in aborted.items():
        summary[f"{token}_aborted"] = float(len(notes))
    if "MORE" in series:
        for token, values in series.items():
            if token != "MORE":
                slug = token.lower().replace("/", "_")
                summary[f"more_over_{slug}_median_gain"] = median_gain(series["MORE"],
                                                                       values)
    meta: dict[str, Any] = {"pairs": [list(pair) for pair in pairs]}
    if aborted:
        meta["aborted_flows"] = aborted
    return CellResult(scenario=spec.name, mode=spec.mode, seed=cell.seed,
                      axes=dict(cell.axes), key=cell.key(), series=series,
                      summary=summary, meta=meta)


def _multiflow_cell(cell: ScenarioCell) -> CellResult:
    spec = cell.scenario
    topology = build_topology(spec.topology)
    flow_sets = build_flow_sets(spec.workload, topology, cell.seed)
    config = spec.run_config(cell.seed)
    environment = spec.environment()
    series: dict[str, list[float]] = {}
    aborted: dict[str, list[str]] = {}
    for token in spec.protocols:
        protocol, protocol_config = _resolve_protocol(token, config)
        throughputs: list[float] = []
        notes: list[str] = []
        for flow_set in flow_sets:
            results = run_flows(topology, protocol, flow_set, config=protocol_config,
                                environment=environment)
            throughputs.extend(result.throughput_pkts for result in results)
            notes.extend(_abort_notes(results))
        series[token] = throughputs
        if notes:
            aborted[token] = notes
    summary = {f"{token}_mean": summarize(values).mean for token, values in series.items()}
    for token, notes in aborted.items():
        summary[f"{token}_aborted"] = float(len(notes))
    flow_count = len(flow_sets[0]) if flow_sets else 0
    meta: dict[str, Any] = {"flow_count": flow_count, "set_count": len(flow_sets),
                            "flow_sets": [[list(pair) for pair in flow_set]
                                          for flow_set in flow_sets]}
    if aborted:
        meta["aborted_flows"] = aborted
    return CellResult(scenario=spec.name, mode=spec.mode, seed=cell.seed,
                      axes=dict(cell.axes), key=cell.key(), series=series,
                      summary=summary, meta=meta)


def _gap_cell(cell: ScenarioCell) -> CellResult:
    from repro.metrics.gap import gap_survey, summarize_gaps  # theory layer: gap cells only

    spec = cell.scenario
    topology = build_topology(spec.topology)
    pairs = build_pairs(spec.workload, topology, cell.seed)
    series = {"gap": [result.gap for result in gap_survey(topology, pairs)]}
    summary = summarize_gaps(series["gap"])
    return CellResult(scenario=spec.name, mode=spec.mode, seed=cell.seed,
                      axes=dict(cell.axes), key=cell.key(), series=series,
                      summary=summary,
                      meta={"pairs": [list(pair) for pair in pairs]})


_MODE_RUNNERS = {
    "throughput": _throughput_cell,
    "multiflow": _multiflow_cell,
    "gap": _gap_cell,
}


def run_cell(cell: ScenarioCell) -> CellResult:
    """Execute one cell serially; fully deterministic given the cell."""
    try:
        runner = _MODE_RUNNERS[cell.scenario.mode]
    except KeyError:
        raise ValueError(f"unknown scenario mode {cell.scenario.mode!r}") from None
    return runner(cell)


def run_cell_dict(cell_data: dict[str, Any]) -> dict[str, Any]:
    """Dict-in/dict-out wrapper around :func:`run_cell` for worker processes."""
    return run_cell(ScenarioCell.from_dict(cell_data)).to_dict()
