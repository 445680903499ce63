"""Run one workload in this process: set-up, timed repetitions, traced pass.

The timed loop is ``slice, unit, slice, unit, ..., slice``: every unit's CPU
seconds are divided by the mean of the calibration slices on either side of
it, and ``norm_cost`` is the median of those quotients.  Units differ only
in their run seed (unit *k* of ``--seed s`` always gets the same one), so
the median is over inputs as well as over host conditions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from bench import OUT_DIR
from bench.calibrate import run_slice
from bench.patch import Patches, resolve
from bench.workloads import Workload

#: Fewest timed repetitions behind a gated number, whatever ``--seconds`` says.
MIN_REPS = 13
#: Units run traced (and, for comparison, first among the untraced ones).
TRACED_REPS = 3


class SimCapture:
    """Keeps every ``Simulator`` a unit builds, so its statistics can be read.

    ``run_flows`` and ``run_sweep`` return throughput, not the simulator;
    frames, events and per-flow completion live on the simulator itself.
    """

    def __init__(self) -> None:
        self._sims: list[Any] = []
        self._patches = Patches()

    def install(self) -> None:
        def make(original):
            sims = self._sims

            def __init__(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                sims.append(sim)
            return __init__
        self._patches.replace("repro.sim.simulator.Simulator.__init__", make)

    def uninstall(self) -> None:
        self._patches.undo()

    def drain(self) -> list[Any]:
        sims, self._sims[:] = list(self._sims), []
        return sims


@dataclass
class Unit:
    """One executed unit: what it cost and what it simulated."""

    cpu_s: float
    wall_s: float
    digest: str
    flows: int
    failed: int
    errors: list[str]
    info: dict[str, float]
    totals: dict[str, float]
    calib_s: float = 0.0

    @property
    def cost(self) -> float:
        """Calibration units: CPU seconds over those of an adjacent slice."""
        return self.cpu_s / self.calib_s


def _simulated_totals(sims: list[Any]) -> dict[str, float]:
    """Exact simulated statistics of one unit, summed over its simulators."""
    records = [record for sim in sims for record in sim.stats.flows.values()]
    frames = sum(sim.stats.total_data_transmissions() for sim in sims)
    delivered = sum(record.delivered_packets for record in records)
    totals = {
        "sim.frames": float(frames),
        "sim.tx_per_delivered": frames / delivered if delivered else 0.0,
        "sim.sim_seconds": sum(sim.now for sim in sims),
        "sim.throughput_pps": statistics.median(
            record.throughput_pkts(now=sim.now)
            for sim in sims for record in sim.stats.flows.values()) if records else 0.0,
        "sim.events.processed": float(sum(sim.events.processed for sim in sims)),
    }
    mac = [node.mac.stats for sim in sims for node in sim.nodes]
    totals["sim.mac.data_tx"] = float(sum(stats.data_transmissions for stats in mac))
    totals["sim.mac.retries"] = float(sum(stats.retries for stats in mac))
    totals["sim.mac.unicast_drops"] = float(sum(stats.unicast_drops for stats in mac))
    totals["sim.mac.busy_sim_s"] = sum(stats.busy_time for stats in mac)
    return totals


def run_unit(workload: Workload, context: Any, seed: int, capture: SimCapture,
             tracer: Any = None) -> Unit:
    """Run one unit, timed; digest and check its output outside the timing."""
    gc.collect()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        if tracer is None:
            outcome = workload.run(context, seed)
        else:
            with tracer.repetition():
                outcome = workload.run(context, seed)
    except Exception:  # the benchmark's boundary: count the failure, keep running
        traceback.print_exc()
        capture.drain()
        return Unit(0.0, 0.0, "", 1, 1, [f"{workload.name}: unit at run seed {seed} raised"],
                    {}, {"sim.frames": 0.0})
    cpu_s = time.process_time() - cpu_started
    wall_s = time.perf_counter() - wall_started
    sims = capture.drain()
    records = [record for sim in sims for record in sim.stats.flows.values()]
    failed = sum(not (record.completed
                      and record.delivered_packets == record.total_packets)
                 for record in records)
    digest = hashlib.sha256(
        json.dumps(outcome.results, sort_keys=True).encode("utf-8")).hexdigest()
    return Unit(cpu_s, wall_s, digest, len(records), failed, outcome.errors,
                outcome.info, _simulated_totals(sims))


@dataclass
class Run:
    """Everything one invocation measured, as it accumulates."""

    workload: Workload
    seed: int
    context: Any = None
    capture: SimCapture = field(default_factory=SimCapture)
    units: list[Unit] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    warm_digest: str = ""

    def account(self, unit: Unit) -> Unit:
        self.attempted += unit.flows
        self.failed += unit.failed
        self.errors.extend(unit.errors)
        return unit

    def unit_seed(self, index: int) -> int:
        """The run seed of unit ``index``: a pure function of workload, seed and index."""
        return random.Random(f"{self.workload.name}/{self.seed}/{index}").randrange(
            1, 2**31 - 64)


def set_up(workload: Workload, seed: int) -> Run:
    """Build the shared inputs, run unit 0 untimed, check the output once."""
    run = Run(workload, seed)
    run.capture.install()
    run.context = workload.prepare()
    warm = run.account(run_unit(workload, run.context, run.unit_seed(0), run.capture))
    run.warm_digest = warm.digest
    if workload.verify is not None:
        run.errors.extend(workload.verify(run.context, run.unit_seed(0)))
        run.capture.drain()
    return run


def measure(run: Run, seconds: float, min_reps: int) -> None:
    """The timed loop: ``seconds`` long, but never fewer than ``min_reps`` units.

    Unit 0 repeats set-up's unit: same digest or bust.
    """
    calib_before, checksum = run_slice()
    deadline = time.perf_counter() + seconds
    while len(run.units) < min_reps or time.perf_counter() < deadline:
        unit = run.account(run_unit(run.workload, run.context,
                                    run.unit_seed(len(run.units)), run.capture))
        calib_after, after_checksum = run_slice()
        if after_checksum != checksum:
            run.errors.append("calibration checksum changed between slices")
        unit.calib_s = (calib_before + calib_after) / 2
        calib_before = calib_after
        run.units.append(unit)
    if run.units[0].digest != run.warm_digest:
        run.errors.append(f"{run.workload.name}: unit 0 gave a different result the "
                          "second time (nondeterminism)")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def bench_metrics(run: Run) -> dict[str, float]:
    """The harness's own per-run numbers (raw seconds included, ungated)."""
    units = [unit for unit in run.units if unit.cpu_s]
    if not units:
        report_errors(run)
        raise SystemExit(f"bench: {run.workload.name}: every unit raised; nothing measured")
    costs = [unit.cost for unit in units]
    norm_cost = statistics.median(costs)
    return {
        "norm_cost": norm_cost,
        "bench.wall_s": statistics.median(unit.wall_s for unit in units),
        "bench.cpu_s": statistics.median(unit.cpu_s for unit in units),
        "bench.calib_s": statistics.median(unit.calib_s for unit in units),
        "bench.reps": float(len(units)),
        "bench.rep_iqr": _iqr_share(costs),
        "bench.frames_per_cu":
            statistics.median(unit.totals["sim.frames"] for unit in units) / norm_cost,
    }


def traced_pass(run: Run, calib_seconds: float) -> dict[str, float]:
    """Re-run the first units with spans installed; return per-layer medians."""
    from bench.trace import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    per_rep: list[dict[str, float]] = []
    aggregates = []
    try:
        for index in range(min(TRACED_REPS, len(run.units))):
            plain = run.units[index]
            traced = run.account(run_unit(run.workload, run.context,
                                          run.unit_seed(index), run.capture, tracer))
            if traced.digest != plain.digest:
                run.errors.append(f"{run.workload.name}: traced unit {index} simulated "
                                  "something else than the untraced one; trace void")
            spans = tracer.take()
            aggregates.append(spans)
            metrics = layer_metrics(spans, calib_seconds)
            metrics.update(traced.totals)
            metrics.update({f"orchestrator.{name}": value
                            for name, value in traced.info.items()})
            metrics["trace.overhead"] = traced.cpu_s / plain.cpu_s if plain.cpu_s else 0.0
            per_rep.append(metrics)
    finally:
        tracer.uninstall()
    names = sorted({name for metrics in per_rep for name in metrics})
    result = {name: statistics.median(metrics.get(name, 0.0) for metrics in per_rep)
              for name in names}
    result["trace.missing"] = float(len(tracer.missing))
    try:
        _, _, pump = resolve("repro.sim.events.pump_timer_workload")
        _, _, queue_class = resolve("repro.sim.events.EventQueue")
        queue = queue_class()
        started = time.perf_counter()
        pump(queue)
        result["sim.events.pump_eps"] = queue.processed / (time.perf_counter() - started)
    except LookupError as missing:
        tracer.missing.append(str(missing))
        result["trace.missing"] += 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"trace-{run.workload.name}.json").write_text(json.dumps(
        {"workload": run.workload.name, "seed": run.seed, "missing": tracer.missing,
         "repetitions": aggregates}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def report_errors(run: Run) -> None:
    for error in run.errors:
        print(f"bench: {error}", file=sys.stderr)
