"""Sweep orchestration: content-addressed store, worker pools, resume.

Public surface:

* :mod:`~repro.experiments.orchestrator.store` — the content-addressed
  result store keyed on ``(spec-hash, seed, code-version)``;
* :mod:`~repro.experiments.orchestrator.journal` — per-sweep manifest
  journals for resume-after-kill bookkeeping;
* :mod:`~repro.experiments.orchestrator.workers` — the worker pool a
  sweep starts for itself, one cell per worker at a time, with fault
  injection for tests;
* :mod:`~repro.experiments.orchestrator.progress` — streaming cells/s,
  ETA and partial-aggregate display;
* :mod:`~repro.experiments.orchestrator.engine` — ``run_sweep`` /
  ``run_scenario`` tying the above together with per-cell retry, a
  worker-inactivity watchdog and crashed-worker replacement.

Each name below loads its module on first use (:mod:`repro.lazy`).
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.orchestrator.engine import (
        DEFAULT_RESULTS_DIR,
        SweepError,
        SweepResult,
        run_scenario,
        run_sweep,
    )
    from repro.experiments.orchestrator.journal import SweepJournal, sweep_id
    from repro.experiments.orchestrator.progress import ProgressPrinter
    from repro.experiments.orchestrator.store import (
        CellKey,
        ResultStore,
        code_version,
        config_fingerprint,
        spec_hash,
    )
    from repro.experiments.orchestrator.workers import WorkerFaultSpec

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.orchestrator.engine": (
        "DEFAULT_RESULTS_DIR", "SweepError", "SweepResult", "run_scenario", "run_sweep"),
    "repro.experiments.orchestrator.journal": ("SweepJournal", "sweep_id"),
    "repro.experiments.orchestrator.progress": ("ProgressPrinter",),
    "repro.experiments.orchestrator.store": (
        "CellKey", "ResultStore", "code_version", "config_fingerprint", "spec_hash"),
    "repro.experiments.orchestrator.workers": ("WorkerFaultSpec",),
})

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "CellKey",
    "WorkerFaultSpec",
    "ProgressPrinter",
    "ResultStore",
    "SweepError",
    "SweepJournal",
    "SweepResult",
    "code_version",
    "config_fingerprint",
    "run_scenario",
    "run_sweep",
    "spec_hash",
    "sweep_id",
]
