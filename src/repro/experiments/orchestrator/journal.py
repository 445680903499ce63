"""Sweep manifest journals: the resume-after-kill bookkeeping.

One journal per *sweep identity* (a hash of the expanded spec plus the
code version), living beside the store at
``results/store/_sweeps/<sweep_id>.jsonl``.  Each ``run_sweep`` appends:

* a ``start`` record naming the scenario, the full cell-key manifest and
  how many cells the store already held, then
* one ``cell`` record per cell as it completes (``status`` is ``cached``,
  ``computed`` or ``retried``), and finally
* a ``finish`` record with the computed/cached totals — or, when a cell's
  error ends the sweep (it exhausted its retries, or rejected its spec), a
  ``cell`` record with status ``failed`` and its attempt count, after
  which the sweep raises and writes no ``finish``.

The *store* is the source of truth for resume — a killed sweep's completed
cells are found by key lookup, never by replaying the journal — so the
journal needs no fsync discipline: it exists so a re-run can say
"resuming: 37/100 cells already complete", so tests can assert that only
the missing cells executed, and so a long sweep's history is auditable.
Records are appended one ``open``/``write``/``close`` at a time, which is
atomic enough for SIGKILL (a torn final line is skipped by the reader).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

from repro.experiments.orchestrator.store import ResultStore, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec


def sweep_id(spec: "ScenarioSpec", code: str) -> str:
    """Identity of one sweep: the full spec (sweep axes included) + code."""
    payload = {"scenario": spec.to_dict(), "code_version": code}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


class SweepJournal:
    """Append-only JSONL manifest for one sweep identity."""

    def __init__(self, store: ResultStore, spec: "ScenarioSpec") -> None:
        self.sweep_id = sweep_id(spec, store.code)
        self.path = store.sweeps_dir() / f"{self.sweep_id}.jsonl"

    def append(self, record: dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def start(self, scenario: str, keys: list[str], cached: int) -> None:
        self.append({"event": "start", "scenario": scenario,
                     "cells": len(keys), "cached": cached, "keys": keys})

    def cell(self, index: int, key: str, status: str, attempt: int = 1) -> None:
        self.append({"event": "cell", "index": index, "key": key,
                     "status": status, "attempt": attempt})

    def finish(self, computed: int, cached: int) -> None:
        self.append({"event": "finish", "computed": computed, "cached": cached})

    def records(self) -> list[dict[str, Any]]:
        """Every readable record, in append order (torn tails skipped)."""
        if not self.path.is_file():
            return []
        records = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail from a kill mid-append
        return records
