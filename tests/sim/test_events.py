"""Tests for the discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.events import (
    COMPACTION_MIN_CANCELLED,
    EventQueue,
    pump_timer_workload,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for label in "abc":
            queue.schedule(1.0, lambda label=label: fired.append(label))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        times = []
        queue.schedule(0.5, lambda: times.append(queue.now))
        queue.schedule(1.5, lambda: times.append(queue.now))
        queue.run()
        assert times == [0.5, 1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule_at(3.0, lambda: fired.append(queue.now)))
        queue.run()
        assert fired == [3.0]

    def test_events_scheduled_from_callbacks_run(self):
        queue = EventQueue()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                queue.schedule(1.0, lambda: chain(depth + 1))

        queue.schedule(0.0, lambda: chain(0))
        queue.run()
        assert fired == [0, 1, 2, 3, 4, 5]


class TestRunControl:
    def test_until_stops_the_clock(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(5.0, lambda: fired.append(5))
        end = queue.run(until=2.0)
        assert fired == [1]
        assert end == 2.0
        assert queue.now == 2.0

    def test_stop_condition(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.schedule(float(i + 1), lambda i=i: fired.append(i))
        queue.run(stop_condition=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_max_events(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.schedule(float(i + 1), lambda i=i: fired.append(i))
        queue.run(max_events=4)
        assert len(fired) == 4

    def test_run_on_empty_queue_with_until(self):
        queue = EventQueue()
        assert queue.run(until=7.0) == 7.0

    def test_processed_counter(self):
        queue = EventQueue()
        for _ in range(3):
            queue.schedule(1.0, lambda: None)
        queue.run()
        assert queue.processed == 3


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        queue.run()
        assert fired == []
        assert handle.cancelled

    def test_empty_property_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, lambda: None)
        assert not queue.empty
        handle.cancel()
        assert queue.empty

    def test_handle_time(self):
        queue = EventQueue()
        handle = queue.schedule(2.5, lambda: None)
        assert handle.time == 2.5

    def test_cancel_after_firing_is_a_noop(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        queue.run()
        assert fired == ["x"]
        assert not handle.cancelled  # fired, not cancelled
        handle.cancel()  # must not corrupt the live counter
        assert queue.empty
        queue.schedule(1.0, lambda: fired.append("y"))
        assert not queue.empty
        queue.run()
        assert fired == ["x", "y"]

    def test_empty_is_o1_not_a_heap_scan(self):
        """Lazy cancellation: ``empty`` comes from the live counter while
        cancelled entries still physically sit in the heap."""
        queue = EventQueue()
        handles = [queue.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the compaction threshold nothing is swept, so the heap
        # still holds every cancelled entry — yet the queue reports empty,
        # which only a counter (not an any() scan-and-pop) can do in O(1).
        assert queue.empty
        assert len(queue._heap) == 10
        assert queue._live == 0
        assert queue.run() == 0.0  # draining the corpses fires nothing
        assert queue.processed == 0


class TestCompaction:
    def test_heap_compacts_when_cancelled_dominate(self):
        queue = EventQueue()
        keep = []
        live = [queue.schedule(float(i + 1), lambda i=i: keep.append(i))
                for i in range(5)]
        cancelled = [queue.schedule(10.0 + i, lambda: keep.append(-1))
                     for i in range(COMPACTION_MIN_CANCELLED + 10)]
        for handle in cancelled:
            handle.cancel()
        # Cancelled entries outnumbered live ones beyond the threshold, so a
        # compaction pass ran: far fewer entries remain than were scheduled
        # (only the live ones plus the post-compaction cancellations).
        assert len(queue._heap) < len(cancelled)
        assert len(queue._heap) >= len(live)
        assert not queue.empty
        fired_before = len(keep)
        queue.run()
        assert len(keep) == fired_before + len(live)

    def test_compaction_never_reorders_events(self):
        queue = EventQueue()
        fired = []
        # Interleave survivors (including same-time ties) with victims.
        for i in range(COMPACTION_MIN_CANCELLED + 20):
            queue.schedule(1.0 + (i % 3) * 0.5, lambda i=i: fired.append(i))
        victims = [queue.schedule(0.5, lambda: fired.append(-1))
                   for _ in range(COMPACTION_MIN_CANCELLED + 20)]
        for handle in victims:
            handle.cancel()
        queue.run()
        # Survivors fire in (time, insertion-order) sequence: for each of
        # the three time buckets, indices ascend.
        assert -1 not in fired
        buckets = {0: [], 1: [], 2: []}
        for index in fired:
            buckets[index % 3].append(index)
        assert fired == sorted(fired, key=lambda i: ((i % 3), i))
        for bucket in buckets.values():
            assert bucket == sorted(bucket)


class TestHandleFreeScheduling:
    def test_schedule_callback_orders_with_handles(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("handle"))
        queue.schedule_callback(1.0, lambda: fired.append("raw-early"))
        queue.schedule_callback(2.0, lambda: fired.append("raw-tie"))
        queue.schedule(2.0, lambda: fired.append("handle-tie"))
        queue.run()
        # Ties break by insertion order regardless of entry flavour.
        assert fired == ["raw-early", "handle", "raw-tie", "handle-tie"]
        assert queue.processed == 4
        assert queue.empty

    def test_schedule_callback_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_callback(-0.5, lambda: None)


class TestVersionGatedStopCondition:
    def test_stop_condition_evaluated_only_on_state_change(self):
        class Versioned:
            version = 0

        source = Versioned()
        queue = EventQueue()
        evaluations = []

        def bump():
            source.version += 1

        for i in range(10):
            queue.schedule(float(i + 1), bump if i % 3 == 0 else (lambda: None))

        def stop():
            evaluations.append(queue.now)
            return False

        queue.run(stop_condition=stop, version_source=source)
        # Bumps happened at t=1, 4, 7, 10: exactly four evaluations.
        assert evaluations == [1.0, 4.0, 7.0, 10.0]

    def test_gated_stop_halts_at_the_same_event(self):
        """Gating must stop at the first event after the condition flips."""
        class Versioned:
            version = 0

        results = {}
        for gated in (False, True):
            source = Versioned()
            queue = EventQueue()
            state = {"count": 0}

            def work():
                state["count"] += 1
                source.version += 1

            for i in range(10):
                queue.schedule(float(i + 1), work)
            stop = lambda: state["count"] >= 4  # noqa: E731
            end = queue.run(stop_condition=stop,
                            version_source=source if gated else None)
            results[gated] = (end, state["count"], queue.processed)
        assert results[True] == results[False]


class TestEngineParity:
    """The queue dispatches in ``sorted(key=(time, sequence))`` order."""

    def test_timer_workload_digest_matches_legacy(self):
        """The canonical timer workload's dispatch digest, final clock and
        event count are committed constants (captured when a second,
        dataclass-heap queue still reproduced them)."""
        queue = EventQueue()
        assert pump_timer_workload(queue, events=5_000) == 807764863
        assert queue.now == 156.17433999999963
        assert queue.processed == 5_000

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_schedule_cancel_script_matches_legacy(self, seed):
        """Property-style check: a random interleaving of schedule /
        schedule_at / cancel / run steps fires exactly the live events, in
        ``(time, sequence)`` order (tie-break determinism included)."""
        queue = EventQueue()
        rng = np.random.default_rng(seed)
        fired = []
        expected = []
        handles = []
        live = {}  # sequence number -> (time, sequence) of each pending event

        def schedule(method, argument, time):
            label = len(handles)  # every event is scheduled here: == sequence
            handles.append(method(
                argument, lambda: fired.append((label, round(queue.now, 9)))))
            live[label] = (time, label)

        def run(max_events=None):
            for label in sorted(live, key=live.get)[:max_events]:
                expected.append((label, round(live.pop(label)[0], 9)))
            queue.run(max_events=max_events)

        for _ in range(300):
            action = rng.integers(0, 10)
            if action < 5:
                delay = float(rng.uniform(0, 2.0))
                schedule(queue.schedule, delay, queue.now + delay)
            elif action < 7:
                # schedule_at clamps times in the past to "now".
                at = float(queue.now + rng.uniform(-0.5, 1.5))
                schedule(queue.schedule_at, at,
                         queue.now + max(0.0, at - queue.now))
            elif action < 9 and handles:
                label = int(rng.integers(0, len(handles)))
                handles[label].cancel()
                live.pop(label, None)  # cancelling a fired event is a no-op
            else:
                run(int(rng.integers(1, 6)))
        run()
        assert fired == expected
        assert len(fired) > 50 and queue.empty

    def test_schedule_at_clamps_to_now(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule_at(
            0.25, lambda: fired.append(queue.now)))
        queue.run()
        assert fired == [1.0]  # past target fires immediately (clamped)
