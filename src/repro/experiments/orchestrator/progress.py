"""Streaming sweep progress: cells/s, ETA and a running partial aggregate.

The engine reports every cell as it lands (cache hit, fresh compute or
retry) and this module turns that stream into throttled single-line status
updates on stderr — stdout stays clean for ``--json`` pipelines.  Alongside
the counters it keeps an **incremental aggregate**: a running mean of every
scalar in the completed cells' ``summary`` dicts, so a thousand-cell sweep
shows where the headline metric is converging long before the sweep ends.

All wall-clock use here is presentation (rates and ETAs for a human
watching a terminal); nothing feeds back into simulation behaviour.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO


class SweepProgress:
    """Counters + running aggregate for one sweep (no I/O of its own)."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.completed = 0
        self.cached = 0
        self.computed = 0
        self.retries = 0
        self.started = time.perf_counter()
        self._summary_sums: dict[str, float] = {}
        self._summary_counts: dict[str, int] = {}

    def record(self, status: str, summary: dict[str, float] | None = None) -> None:
        """Count one completed cell (``status``: ``cached`` or ``computed``)."""
        self.completed += 1
        if status == "cached":
            self.cached += 1
        else:
            self.computed += 1
        for name, value in (summary or {}).items():
            if isinstance(value, (int, float)):
                self._summary_sums[name] = self._summary_sums.get(name, 0.0) + value
                self._summary_counts[name] = self._summary_counts.get(name, 0) + 1

    def record_retry(self) -> None:
        self.retries += 1

    def rate(self) -> float:
        """Completed cells per wall second so far."""
        elapsed = time.perf_counter() - self.started
        return self.completed / elapsed if elapsed > 0 else 0.0

    def eta(self) -> float | None:
        """Seconds until done at the current rate (``None`` before any data)."""
        rate = self.rate()
        if rate <= 0 or self.completed == 0:
            return None
        return (self.total - self.completed) / rate

    def partial_summary(self) -> dict[str, float]:
        """Running mean of every scalar summary metric across completed cells."""
        return {name: self._summary_sums[name] / self._summary_counts[name]
                for name in sorted(self._summary_sums)}


class ProgressPrinter:
    """Throttled stderr renderer over :class:`SweepProgress`."""

    def __init__(self, scenario: str, total: int, enabled: bool = True,
                 stream: TextIO | None = None, interval: float = 0.5) -> None:
        self.scenario = scenario
        self.progress = SweepProgress(total)
        self.enabled = enabled and total > 0
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._last_emit = 0.0
        self._last_completed = -1

    def cell_done(self, status: str,
                  summary: dict[str, float] | None = None) -> None:
        self.progress.record(status, summary)
        self._maybe_emit()

    def retry(self, reason: str, position: int) -> None:
        self.progress.record_retry()
        if self.enabled:
            print(f"sweep {self.scenario}: retrying cell {position} ({reason})",
                  file=self.stream, flush=True)

    def finish(self) -> None:
        self._maybe_emit(force=True)

    def _maybe_emit(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        done = self.progress.completed >= self.progress.total
        if not force and not done and now - self._last_emit < self.interval:
            return
        if self.progress.completed == self._last_completed:
            return  # nothing new since the last line (e.g. finish() after done)
        self._last_emit = now
        self._last_completed = self.progress.completed
        print(self._line(), file=self.stream, flush=True)

    def _line(self) -> str:
        progress = self.progress
        parts = [f"sweep {self.scenario}: {progress.completed}/{progress.total} cells",
                 f"{progress.cached} cached",
                 f"{progress.rate():.1f} cells/s"]
        eta = progress.eta()
        if eta is not None and progress.completed < progress.total:
            parts.append(f"ETA {eta:.0f}s")
        if progress.retries:
            parts.append(f"{progress.retries} retried")
        parts.append(_format_partial(progress.partial_summary()))
        return " | ".join(part for part in parts if part)


def _format_partial(summary: dict[str, Any], limit: int = 2) -> str:
    """The first ``limit`` running means, compactly (empty when none)."""
    shown = [f"{name}~{value:.2f}" for name, value in list(summary.items())[:limit]]
    return " ".join(shown)
