"""Discrete-event engine.

A minimal but complete event scheduler: events are plain ``(time, sequence,
handle)`` tuples kept in a binary heap; ties in time are broken by insertion
order so runs are fully deterministic.  The engine underpins the whole
wireless substrate — the MAC, the medium and the protocol agents all operate
by scheduling callbacks — which makes it the hottest loop of every
simulation, so the implementation is deliberately allocation-light:

* heap entries are tuples (no per-event dataclass), and the handle a caller
  may use to cancel is a ``__slots__`` object;
* cancellation is *lazy*: a cancelled entry stays in the heap (its handle's
  callback slot is cleared) and is discarded when it reaches the top, with
  a live-event counter making :attr:`EventQueue.empty` O(1) and a periodic
  compaction pass keeping the heap small when cancelled entries dominate;
* :meth:`EventQueue.run` hoists attribute lookups out of the dispatch loop.

Dispatch order is exactly ``sorted(key=(time, sequence))`` over the live
events, which is what ``tests/sim/test_events.py`` holds the queue to.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol


def _FIRED() -> None:
    """Sentinel stored in a handle's callback slot once the event has fired,
    so a late ``cancel()`` neither double-counts nor marks the handle
    cancelled.  Compared by identity only; never actually called."""
    raise AssertionError("the fired sentinel must never be invoked")


class VersionSource(Protocol):
    """Anything exposing a counter that bumps when observable state changes
    (e.g. :class:`~repro.sim.trace.StatsCollector`)."""

    version: int

#: Lazy cancellation compacts the heap only when at least this many
#: cancelled entries have accumulated *and* they outnumber the live ones —
#: amortised O(log n) per operation, never a rescan on the hot path.
COMPACTION_MIN_CANCELLED = 64


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`, usable to cancel."""

    __slots__ = ("time", "_callback", "_queue")

    def __init__(self, time: float, callback: Callable[[], None],
                 queue: "EventQueue") -> None:
        self.time = time
        self._callback: Callable[[], None] | None = callback
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent).

        O(1): the heap entry is left in place with its callback cleared and
        is dropped when it surfaces (or at the next compaction).
        """
        callback = self._callback
        if callback is None or callback is _FIRED:
            return  # already cancelled / already fired
        self._callback = None
        queue = self._queue
        queue._live -= 1
        queue._cancelled += 1
        if (queue._cancelled > COMPACTION_MIN_CANCELLED
                and queue._cancelled > queue._live):
            queue._compact()

    @property
    def cancelled(self) -> bool:
        """True if the event has been cancelled (False once it has fired)."""
        return self._callback is None


#: Heap entries carry either a cancellable handle or (on the
#: :meth:`EventQueue.schedule_callback` fast path) the bare callback.
_HeapEntry = tuple[float, int, "EventHandle | Callable[[], None]"]


class EventQueue:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._heap: list[_HeapEntry] = []
        self._sequence = 0
        self._live = 0        # scheduled, not yet fired, not cancelled
        self._cancelled = 0   # cancelled entries still sitting in the heap
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + delay
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._heap, (time, self._sequence, handle))
        self._sequence += 1
        self._live += 1
        return handle

    def schedule_callback(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no cancel handle is created.

        The MAC's contention, completion and turnaround events never
        cancel, so the hot path skips materialising an
        :class:`EventHandle` per event; the callback itself rides in the
        heap tuple.  Dispatch order is unchanged (same ``(time,
        sequence)`` key space).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback))
        self._sequence += 1
        self._live += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(max(0.0, time - self.now), callback)

    def schedule_callback_at(self, time: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancel handle is created.

        The delay arithmetic is exactly :meth:`schedule_at`'s, so the heap
        keys — and therefore dispatch order — are bit-identical to the
        handle-returning path.
        """
        self.schedule_callback(max(0.0, time - self.now), callback)

    @property
    def empty(self) -> bool:
        """True if no pending (non-cancelled) events remain.  O(1)."""
        return self._live == 0

    def _compact(self) -> None:
        """Drop cancelled entries from the heap.

        Re-heapifying the surviving tuples cannot reorder events: the heap
        invariant is rebuilt over the same ``(time, sequence)`` keys, and
        dispatch order is fully determined by those keys.  The list is
        filtered in place so a :meth:`run` loop holding a reference to it
        (cancellations routinely happen inside callbacks) stays valid.
        """
        heap = self._heap
        survivors: list[_HeapEntry] = []
        for entry in heap:
            target = entry[2]
            if isinstance(target, EventHandle) and target._callback is None:
                continue
            survivors.append(entry)
        heap[:] = survivors
        heapq.heapify(heap)
        self._cancelled = 0

    def run(self, until: float | None = None,
            stop_condition: Callable[[], bool] | None = None,
            max_events: int | None = None,
            version_source: VersionSource | None = None) -> float:
        """Process events in time order.

        Args:
            until: stop once the clock would pass this time (the clock is
                left at ``until``).
            stop_condition: evaluated after every event; processing stops as
                soon as it returns True.
            max_events: hard cap on processed events (guards against
                run-away protocols in tests).
            version_source: optional object with an integer ``version``
                attribute that increments whenever the state
                ``stop_condition`` reads changes (e.g. a
                :class:`~repro.sim.trace.StatsCollector`).  When given, the
                condition is only evaluated after *state-changing* events —
                a pure function of that state cannot change value while the
                version stands still, so the stopping event is identical to
                evaluating it every time.

        Returns:
            The simulation time when processing stopped.
        """
        heap = self._heap
        pop = heapq.heappop
        now = self.now
        processed_here = 0
        last_version = -1
        try:
            while heap:
                entry = heap[0]
                target = entry[2]
                handle: EventHandle | None
                if isinstance(target, EventHandle):
                    callback = target._callback
                    if callback is None:  # lazily-cancelled entry surfacing
                        pop(heap)
                        self._cancelled -= 1
                        continue
                    handle = target
                else:  # handle-free entry: the callback rides in the tuple
                    callback = target
                    handle = None
                time = entry[0]
                if until is not None and time > until:
                    now = until
                    break
                pop(heap)
                self._live -= 1
                if handle is not None:
                    handle._callback = _FIRED
                self.now = now = time
                callback()
                processed_here += 1
                if stop_condition is not None:
                    if version_source is None:
                        if stop_condition():
                            return now
                    else:
                        version = version_source.version
                        if version != last_version:
                            last_version = version
                            if stop_condition():
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
BENCH_CANCEL_EVERY = 3


def pump_timer_workload(queue: EventQueue,
                        events: int = BENCH_EVENTS,
                        timers: int = BENCH_TIMERS,
                        cancel_every: int = BENCH_CANCEL_EVERY) -> int:
    """Drive a deterministic timer workload through ``queue``; return a digest.

    ``timers`` self-rescheduling timers with co-prime periods model the MAC
    retransmission/backoff traffic of a busy mesh; every ``cancel_every``-th
    firing additionally schedules a watchdog and immediately cancels it (a
    timeout armed and then disarmed), exercising the handle path, lazy
    cancellation and compaction.  The CSMA MAC itself schedules without
    handles (:meth:`EventQueue.schedule_callback`); this load is what a
    caller that does cancel pays.  The returned digest pins the dispatched
    sequence (``tests/sim/test_events.py`` holds it to a committed value).
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
                handle = queue.schedule(period, tick)
                if fired % cancel_every == 0:
                    watchdog = queue.schedule(period * 2.0, tick)
                    watchdog.cancel()
                    _ = handle  # the live timer keeps its handle
        return tick

    for index in range(timers):
        # repro: allow-EVT101 — the benchmark deliberately drives the
        # handle-allocating path; measuring its cost is the point.
        queue.schedule(0.001 * (index + 1), make_timer(index))
    queue.run(max_events=events)
    return digest
