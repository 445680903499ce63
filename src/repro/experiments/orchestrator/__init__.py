"""Sweep orchestration: content-addressed store, persistent workers, resume.

Public surface:

* :mod:`~repro.experiments.orchestrator.store` — the content-addressed
  result store keyed on ``(spec-hash, seed, code-version)``;
* :mod:`~repro.experiments.orchestrator.journal` — per-sweep manifest
  journals for resume-after-kill bookkeeping;
* :mod:`~repro.experiments.orchestrator.workers` — the persistent worker
  pool (warm across cells and across sweeps) with fault injection for tests;
* :mod:`~repro.experiments.orchestrator.progress` — streaming cells/s,
  ETA and partial-aggregate display;
* :mod:`~repro.experiments.orchestrator.engine` — ``run_sweep`` /
  ``run_scenario`` tying the above together with per-cell retry, a
  worker-inactivity watchdog and crashed-worker replacement.
"""

from repro.experiments.orchestrator.engine import (
    DEFAULT_RESULTS_DIR,
    SweepError,
    SweepResult,
    run_scenario,
    run_sweep,
)
from repro.experiments.orchestrator.journal import SweepJournal, sweep_id
from repro.experiments.orchestrator.progress import ProgressPrinter, SweepProgress
from repro.experiments.orchestrator.store import (
    CellKey,
    ResultStore,
    code_version,
    config_fingerprint,
    spec_hash,
)
from repro.experiments.orchestrator.workers import (
    WorkerFaultSpec,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "CellKey",
    "WorkerFaultSpec",
    "ProgressPrinter",
    "ResultStore",
    "SweepError",
    "SweepJournal",
    "SweepProgress",
    "SweepResult",
    "WorkerPool",
    "code_version",
    "config_fingerprint",
    "run_scenario",
    "run_sweep",
    "shared_pool",
    "shutdown_shared_pools",
    "spec_hash",
    "sweep_id",
]
