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

#: Seconds between two status lines; the line for the last cell always prints.
_INTERVAL_SECONDS = 0.5

#: Running means shown per status line.
_SHOWN_MEANS = 2


class ProgressPrinter:
    """One sweep's counters and running aggregate, printed to stderr.

    A disabled printer (``enabled=False``, or a sweep of no cells) counts
    nothing and prints nothing.
    """

    def __init__(self, scenario: str, total: int, enabled: bool = True) -> None:
        self.scenario = scenario
        self.total = total
        self.enabled = enabled and total > 0
        self.completed = 0
        self.cached = 0
        self.retries = 0
        self.started = time.perf_counter()
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._last_emit = 0.0
        self._last_completed = -1

    def cell_done(self, status: str,
                  summary: dict[str, float] | None = None) -> None:
        """Count one completed cell (``status``: ``cached`` or ``computed``)."""
        if not self.enabled:
            return
        self.completed += 1
        if status == "cached":
            self.cached += 1
        for name, value in (summary or {}).items():
            if isinstance(value, (int, float)):
                self._sums[name] = self._sums.get(name, 0.0) + value
                self._counts[name] = self._counts.get(name, 0) + 1
        self._maybe_emit()

    def retry(self, reason: str, position: int) -> None:
        if not self.enabled:
            return
        self.retries += 1
        print(f"sweep {self.scenario}: retrying cell {position} ({reason})",
              file=sys.stderr, flush=True)

    def finish(self) -> None:
        self._maybe_emit(force=True)

    def _maybe_emit(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        done = self.completed >= self.total
        if not force and not done and now - self._last_emit < _INTERVAL_SECONDS:
            return
        if self.completed == self._last_completed:
            return  # nothing new since the last line (e.g. finish() after done)
        self._last_emit = now
        self._last_completed = self.completed
        print(self._line(), file=sys.stderr, flush=True)

    def _line(self) -> str:
        elapsed = time.perf_counter() - self.started
        rate = self.completed / elapsed if elapsed > 0 else 0.0
        parts = [f"sweep {self.scenario}: {self.completed}/{self.total} cells",
                 f"{self.cached} cached",
                 f"{rate:.1f} cells/s"]
        if rate > 0 and self.completed < self.total:
            parts.append(f"ETA {(self.total - self.completed) / rate:.0f}s")
        if self.retries:
            parts.append(f"{self.retries} retried")
        means = [f"{name}~{self._sums[name] / self._counts[name]:.2f}"
                 for name in sorted(self._sums)[:_SHOWN_MEANS]]
        parts.append(" ".join(means))
        return " | ".join(part for part in parts if part)
