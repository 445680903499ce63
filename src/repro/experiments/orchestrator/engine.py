"""The sweep engine: content-addressed caching + one worker pool per sweep.

``run_sweep`` is what ``python -m repro run`` / ``sweep`` and every
programmatic sweep call.  The flow per sweep:

1. expand the spec into cells and compute every cell's
   :class:`~repro.experiments.orchestrator.store.CellKey` up front;
2. satisfy what the store already holds (unless ``force``) — this is also
   the **resume** path: a killed sweep's completed cells are plain store
   hits on the next run, so only the missing cells execute;
3. run the rest — in-process when ``workers`` is 1 (the bit-identity
   reference path), otherwise on a
   :class:`~repro.experiments.orchestrator.workers.WorkerPool` the sweep
   starts for itself and stops before it returns, one cell per worker at a
   time, with per-cell retry, a per-worker inactivity timeout, and
   crashed-worker replacement;
4. stream progress + a running partial aggregate to stderr, journal every
   completion, and save each fresh result to the store the moment it lands
   (not at sweep end — that is what makes SIGKILL cheap).

Parallel and serial runs are bit-identical because cells are deterministic
and results are reassembled in expansion order; nothing about scheduling
can leak into a cell's bytes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.experiments.orchestrator.journal import SweepJournal
from repro.experiments.orchestrator.progress import ProgressPrinter
from repro.experiments.orchestrator.store import CellKey, ResultStore
from repro.experiments.orchestrator.workers import (
    MSG_DONE,
    MSG_INVALID,
    WorkerFaultSpec,
    WorkerPool,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle: scenarios uses workloads
    from repro.scenarios.execute import CellResult
    from repro.scenarios.spec import ScenarioCell, ScenarioSpec

#: Default results root, relative to the current working directory.
DEFAULT_RESULTS_DIR = Path("results")

#: Extra attempts granted to a cell whose worker crashed, hung or raised.
DEFAULT_RETRIES = 2

#: How long (seconds) a busy worker may go silent before it is presumed
#: wedged, killed and replaced.  ``None`` disables the watchdog.
DEFAULT_CELL_TIMEOUT: float | None = None

#: Result-queue poll period: how often the watchdog gets to look around.
_POLL_SECONDS = 0.2


class SweepError(RuntimeError):
    """A cell exhausted its retries (worker traceback in the message)."""


@dataclass
class SweepResult:
    """Outcome of one sweep: every cell's result, in expansion order."""

    scenario: str
    cells: list[CellResult]
    cached_cells: int = 0
    elapsed: float = 0.0
    workers: int = 1
    axes: list[str] = field(default_factory=list)
    computed_cells: int = 0

    def report(self) -> str:
        """Text report: one block per cell plus a sweep footer."""
        blocks = [cell.report() for cell in self.cells]
        footer = (f"sweep {self.scenario}: {len(self.cells)} cells "
                  f"({self.cached_cells} cached) in {self.elapsed:.1f}s "
                  f"with {self.workers} worker(s)")
        return "\n\n".join(blocks + [footer])

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "cells": [cell.to_dict() for cell in self.cells],
            "cached_cells": self.cached_cells,
            "computed_cells": self.computed_cells,
            "elapsed": self.elapsed,
            "workers": self.workers,
            "axes": list(self.axes),
        }


def run_sweep(spec: ScenarioSpec, workers: int = 1,
              results_dir: str | Path | None = DEFAULT_RESULTS_DIR,
              force: bool = False,
              retries: int = DEFAULT_RETRIES,
              cell_timeout: float | None = DEFAULT_CELL_TIMEOUT,
              progress: bool = False,
              fault: WorkerFaultSpec | None = None) -> SweepResult:
    """Run every cell of ``spec``'s sweep through the store + a worker pool.

    Args:
        spec: the scenario to expand and run.
        workers: worker processes for uncached cells (1 = in-process serial;
            at least 1).  The pool holds at most one worker per uncached
            cell and is stopped before this returns or raises.
        results_dir: root of the content-addressed store, read and written
            (``None`` disables the store entirely).
        force: recompute every cell even when stored (overwrites entries).
        retries: extra attempts per cell after a crash, hang or exception
            before the sweep fails with :class:`SweepError` (at least 0).
        cell_timeout: seconds of per-worker silence before the watchdog
            kills and replaces it (``None`` = no timeout; otherwise above 0).
        progress: stream cells/s, ETA and a running partial aggregate to
            stderr while the sweep runs.
        fault: test-only: a :class:`WorkerFaultSpec` every pool worker
            carries (the serial path runs none).

    Returns:
        A :class:`SweepResult` with cells in deterministic expansion order,
        bit-identical for any worker count.

    Raises:
        ValueError: a ``workers`` below 1, a negative ``retries``, or a
            ``cell_timeout`` that is neither ``None`` nor above 0 (NaN
            included), before any cell runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be at least 0, got {retries}")
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError(f"cell_timeout must be above 0 seconds, got {cell_timeout}")
    started = time.perf_counter()
    cells = spec.expand()
    store = ResultStore(results_dir) if results_dir is not None else None
    keys: list[CellKey | None] = [store.key_for(cell) if store else None
                                  for cell in cells]

    results: dict[int, CellResult] = {}
    if store is not None and not force:
        for position, key in enumerate(keys):
            hit = store.load(key)
            if hit is not None:
                results[position] = hit
    cached = len(results)

    journal = SweepJournal(store, spec) if store is not None else None
    if journal is not None:
        journal.start(spec.name, [key.render() for key in keys], cached)
    printer = ProgressPrinter(spec.name, total=len(cells), enabled=progress)
    if journal is not None:
        for position in sorted(results):
            journal.cell(position, keys[position].render(), "cached")
    for position in sorted(results):
        printer.cell_done("cached", results[position].summary)

    pending = [position for position in range(len(cells))
               if position not in results]

    def complete(position: int, result: CellResult, attempt: int) -> None:
        results[position] = result
        if store is not None:
            store.save(keys[position], cells[position], result)
        if journal is not None:
            status = "computed" if attempt == 1 else "retried"
            journal.cell(position, keys[position].render(), status, attempt)
        printer.cell_done("computed", result.summary)

    def fail(position: int, attempt: int) -> None:
        """Journal the cell whose error ends the sweep (the caller raises)."""
        if journal is not None:
            journal.cell(position, keys[position].render(), "failed", attempt)

    if pending and workers == 1:
        _run_serial(cells, pending, complete, fail)
    elif pending:
        pool = WorkerPool(min(workers, len(pending)), fault)
        try:
            _run_pooled(cells, pending, complete, fail, printer, pool,
                        retries=retries, cell_timeout=cell_timeout)
        finally:
            pool.shutdown()

    printer.finish()
    if journal is not None:
        journal.finish(computed=len(cells) - cached, cached=cached)
    return SweepResult(
        scenario=spec.name,
        cells=[results[position] for position in range(len(cells))],
        cached_cells=cached,
        computed_cells=len(cells) - cached,
        elapsed=time.perf_counter() - started,
        workers=workers,
        axes=list(spec.sweep),
    )


def run_scenario(spec: ScenarioSpec, seed: int | None = None, workers: int = 1,
                 results_dir: str | Path | None = DEFAULT_RESULTS_DIR,
                 force: bool = False, **options: Any) -> SweepResult:
    """Run a scenario, optionally pinned to a single seed (the CLI ``run`` verb)."""
    if seed is not None:
        spec = spec.with_overrides({})
        spec.seeds = (int(seed),)
    return run_sweep(spec, workers=workers, results_dir=results_dir, force=force,
                     **options)


def _run_serial(cells: list[ScenarioCell], pending: list[int],
                complete: Any, fail: Any) -> None:
    """The in-process path — and the bit-identity reference for the pool."""
    from repro.scenarios.execute import run_cell

    for position in pending:
        try:
            result = run_cell(cells[position])
        except Exception:
            fail(position, 1)
            raise
        complete(position, result, 1)


def _run_pooled(cells: list[ScenarioCell], pending: list[int], complete: Any,
                fail: Any, printer: ProgressPrinter, pool: WorkerPool,
                retries: int, cell_timeout: float | None) -> None:
    """One-cell dispatch across the pool with retry/timeout/replacement.

    Bookkeeping invariant: every not-yet-finished position is either in
    ``queue`` (waiting) or held by exactly one live worker, as the
    ``(task id, position)`` in its ``held`` slot.  A worker that crashes,
    wedges past ``cell_timeout`` or reports a cell exception gives its cell
    back to ``queue`` (attempt count bumped), and a crashed or wedged one is
    replaced; a position that exceeds ``retries`` extra attempts raises
    :class:`SweepError` for the whole sweep — a sweep with holes in it is
    not a result.  A cell that rejects its spec (``ValueError``) is not
    retried: the error is raised here as the serial path raises it, from the
    first such cell in cell order, once every cell before it has finished,
    whichever worker reported first; no cell after it is dispatched.  Either
    way ``fail`` journals the cell before the raise.  Task ids are unique
    within the sweep, so a message a replaced worker sent before it died
    matches no ``held`` slot and is dropped.
    """
    from queue import Empty

    from repro.scenarios.execute import CellResult

    queue = list(pending)
    attempts = {position: 0 for position in pending}
    held: list[tuple[int, int] | None] = [None] * len(pool.workers)
    invalid: dict[int, str] = {}  # position -> the spec error it reported
    last_activity = [0.0] * len(pool.workers)
    task_ids = itertools.count()

    def dispatch(index: int) -> None:
        if not queue or held[index] is not None:
            return
        position = queue.pop(0)
        task_id = next(task_ids)
        attempts[position] += 1
        held[index] = (task_id, position)
        last_activity[index] = time.monotonic()
        pool.workers[index].submit(task_id, position, cells[position].to_dict())

    def diagnosis_note(position: int) -> str:
        """What liveness forensics exist for an externally-killed cell.

        A timed-out or crashed worker dies from the outside, so the only
        in-run forensics are the abort reasons the
        :class:`~repro.experiments.refresh.FlowSupervisor` writes into a
        finished cell — never here.  Spell out which case this is so a
        timeout line tells the user how to get a diagnosis next time.
        """
        timeout = cells[position].scenario.run.get("progress_timeout", "inf")
        if math.isfinite(float(timeout)):
            return ("progress watchdog enabled but no flow aborted before "
                    "the kill; lower run.progress_timeout")
        return ("no diagnosis: progress watchdog disabled (rerun with "
                "run.progress_timeout=SECONDS)")

    def give_back(position: int, reason: str, detail: str) -> None:
        """Requeue ``position`` for another attempt, or end the sweep."""
        if attempts[position] > retries:
            fail(position, attempts[position])
            raise SweepError(f"cell {position} failed after {attempts[position]} "
                             f"attempt(s):{detail}")
        printer.retry(reason, position)
        queue.append(position)

    def recycle(index: int, reason: str) -> None:
        """Kill + replace worker ``index``; requeue the cell it held."""
        _, position = held[index]
        held[index] = None
        note = f"{reason}; {diagnosis_note(position)}"
        give_back(position, note, f" worker {note}")
        pool.replace(index)

    for index in range(len(pool.workers)):
        dispatch(index)

    remaining = len(pending)
    while remaining:
        try:
            tag, task_id, position, payload = pool.result_queue.get(
                timeout=_POLL_SECONDS)
        except Empty:
            now = time.monotonic()
            for index, worker in enumerate(pool.workers):
                if held[index] is None:
                    continue
                if not worker.alive():
                    recycle(index, "crashed")
                elif (cell_timeout is not None
                      and now - last_activity[index] > cell_timeout):
                    recycle(index, f"timed out after {cell_timeout:.1f}s")
            for index in range(len(pool.workers)):
                dispatch(index)
            continue

        owner = next((index for index, task in enumerate(held)
                      if task is not None and task[0] == task_id), None)
        if owner is None:
            continue  # sent by a worker replaced mid-cell
        held[owner] = None
        if tag == MSG_DONE:
            remaining -= 1
            complete(position, CellResult.from_dict(payload), attempts[position])
        elif tag == MSG_INVALID:
            invalid[position] = payload
        else:  # MSG_ERROR
            give_back(position, "cell raised", f"\n{payload}")
        if invalid:
            # The serial path stops at the first invalid cell: run only the
            # cells before it, and raise once none of them is left.
            first = min(invalid)
            queue[:] = [waiting for waiting in queue if waiting < first]
            if not queue and all(task is None or task[1] > first for task in held):
                fail(first, attempts[first])
                raise ValueError(invalid[first])
        dispatch(owner)
