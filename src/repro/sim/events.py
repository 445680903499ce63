"""Discrete-event engine.

A minimal but complete event scheduler: events are plain ``(time, sequence,
callback)`` tuples kept in a binary heap; ties in time are broken by
insertion order so runs are fully deterministic.  The engine underpins the
whole wireless substrate — the MAC, the medium and the protocol agents all
operate by scheduling callbacks — which makes it the hottest loop of every
simulation, so the implementation is deliberately allocation-light: one
tuple per event, and :meth:`EventQueue.run` hoists attribute lookups out of
the dispatch loop.

An event, once scheduled, fires.  A timer that may go stale before it fires
carries an epoch and checks it on arrival instead of being cancelled
(``repro.protocols.exor.agent.ExorScheduler._grant_if_current`` drops a
turn grant whose batch has moved on).

Dispatch order is exactly ``sorted(key=(time, sequence))`` over the
scheduled events, which is what ``tests/sim/test_events.py`` holds the queue
to.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback))
        self._sequence += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute simulation time (a past time is
        clamped to now)."""
        self.schedule(max(0.0, time - self.now), callback)

    def clear(self) -> None:
        """Drop every pending event (the run has ended); the clock and
        :attr:`processed` stay."""
        self._heap.clear()

    @property
    def empty(self) -> bool:
        """True if no pending events remain."""
        return not self._heap

    def run(self, until: float | None = None,
            stop_condition: Callable[[], bool] | None = None,
            max_events: int | None = None) -> float:
        """Process events in time order.

        Args:
            until: stop once the clock would pass this time (the clock is
                left at ``until``).
            stop_condition: evaluated after every event; processing stops as
                soon as it returns True.
            max_events: hard cap on processed events (guards against
                run-away protocols in tests).

        Returns:
            The simulation time when processing stopped.
        """
        heap = self._heap
        pop = heapq.heappop
        now = self.now
        processed_here = 0
        try:
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    now = until
                    break
                callback = pop(heap)[2]
                self.now = now = time
                callback()
                processed_here += 1
                if stop_condition is not None and stop_condition():
                    return now
                if max_events is not None and processed_here >= max_events:
                    return now
        finally:
            self.processed += processed_here
        if until is not None and until > now:
            now = until
        self.now = now
        return now


# --------------------------------------------------------------------------- #
# Canonical scheduler benchmark workload
# --------------------------------------------------------------------------- #

#: What ``python3 -m bench`` times for ``sim.events.pump_eps`` (resolved by
#: name in ``bench/harness.py``); ``tests/sim/test_events.py`` pins its digest.
BENCH_TIMERS = 32
BENCH_EVENTS = 60_000


def pump_timer_workload(queue: EventQueue,
                        events: int = BENCH_EVENTS,
                        timers: int = BENCH_TIMERS) -> int:
    """Drive a deterministic timer workload through ``queue``; return a digest.

    ``timers`` self-rescheduling timers with co-prime periods model the MAC
    retransmission/backoff traffic of a busy mesh.  The returned digest pins
    the dispatched sequence (``tests/sim/test_events.py`` holds it to a
    committed value).
    """
    fired = 0
    digest = 0

    def make_timer(index: int) -> Callable[[], None]:
        period = 1.0 + (index % 7) * 0.001 + index * 1e-6

        def tick() -> None:
            nonlocal fired, digest
            fired += 1
            digest = (digest * 31 + index + 1) % 1_000_000_007
            if fired < events:
                queue.schedule(period, tick)
        return tick

    for index in range(timers):
        queue.schedule(0.001 * (index + 1), make_timer(index))
    queue.run(max_events=events)
    return digest
