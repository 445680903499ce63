"""Tests for the discrete-event engine."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.sim.events import (
    BENCH_EVENTS,
    BENCH_TIMERS,
    EventQueue,
    pump_timer_workload,
)
from repro.sim.simulator import Simulator


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

    def test_empty_tracks_pending_events(self):
        queue = EventQueue()
        assert queue.empty
        queue.schedule(1.0, lambda: None)
        queue.schedule_at(2.0, lambda: None)
        assert not queue.empty
        queue.run(max_events=1)
        assert not queue.empty
        queue.run()
        assert queue.empty

    def test_until_leaves_later_events_pending(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(queue.now))
        queue.schedule(5.0, lambda: fired.append(queue.now))
        queue.run(until=2.0)
        assert not queue.empty
        assert queue.run() == 5.0
        assert fired == [1.0, 5.0]

    def test_max_events_resumes_where_it_stopped(self):
        queue = EventQueue()
        fired = []
        for i in range(6):
            queue.schedule(float(6 - i), lambda i=i: fired.append(i))
        queue.run(max_events=2)
        assert fired == [5, 4]
        queue.run()
        assert fired == [5, 4, 3, 2, 1, 0]
        assert queue.processed == 6

    def test_raising_callback_keeps_the_count_and_the_rest_of_the_queue(self):
        queue = EventQueue()
        fired = []

        def boom():
            raise RuntimeError("boom")

        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(2.0, boom)
        queue.schedule(3.0, lambda: fired.append(3))
        with pytest.raises(RuntimeError, match="boom"):
            queue.run()
        # Only the event that completed is counted; the clock stands at the
        # failed event and the later one still fires on the next run.
        assert queue.processed == 1
        assert queue.now == 2.0
        queue.run()
        assert fired == [1, 3]
        assert queue.processed == 2

    def test_zero_delay_from_a_callback_fires_after_queued_ties(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule(0.0, lambda: fired.append("nested")))
        queue.schedule(1.0, lambda: fired.append("queued"))
        queue.run()
        assert fired == ["queued", "nested"]

    def test_schedule_and_schedule_at_share_one_key_space(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("delay"))
        queue.schedule_at(1.0, lambda: fired.append("at-early"))
        queue.schedule_at(2.0, lambda: fired.append("at-tie"))
        queue.schedule(2.0, lambda: fired.append("delay-tie"))
        queue.run()
        # Ties break by insertion order whichever method scheduled them.
        assert fired == ["at-early", "delay", "at-tie", "delay-tie"]


class TestOneEventKind:
    """Every scheduled event fires: scheduling hands back nothing to keep."""

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_scheduling_returns_nothing(self, method):
        queue = EventQueue()
        assert getattr(queue, method)(1.0, lambda: None) is None
        assert not queue.empty

    def test_public_surface_is_two_schedulers_run_empty_and_clear(self):
        public = {name for name in dir(EventQueue) if not name.startswith("_")}
        assert public == {"schedule", "schedule_at", "run", "empty", "clear"}

    def test_clear_ends_the_queue_not_an_event(self):
        """``clear`` drops every pending event at once (a finished run's
        queue), keeping the clock and the count of events processed."""
        queue = EventQueue()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            queue.schedule(delay, lambda delay=delay: fired.append(delay))
        queue.run(max_events=1)
        queue.clear()
        assert queue.empty and (queue.now, queue.processed) == (1.0, 1)
        assert queue.run() == 1.0 and fired == [1.0]

    def test_simulator_schedules_through_its_queue_only(self):
        public = {name for name in dir(Simulator) if not name.startswith("_")}
        assert not {name for name in public if name.startswith("schedule")}


class TestStopCondition:
    def test_stop_condition_is_evaluated_after_every_event(self):
        queue = EventQueue()
        evaluations = []
        for i in range(10):
            queue.schedule(float(i + 1), lambda: None)

        def stop():
            evaluations.append(queue.now)
            return False

        queue.run(stop_condition=stop)
        assert evaluations == [float(i + 1) for i in range(10)]

    def test_stop_halts_at_the_first_event_after_the_condition_flips(self):
        queue = EventQueue()
        state = {"count": 0}

        def work():
            state["count"] += 1

        for i in range(10):
            queue.schedule(float(i + 1), work)
        end = queue.run(stop_condition=lambda: state["count"] >= 4)
        assert (end, state["count"], queue.processed) == (4.0, 4, 4)
        queue.run()
        assert (state["count"], queue.processed) == (10, 10)

    def test_run_takes_until_stop_condition_and_max_events_only(self):
        parameters = list(inspect.signature(EventQueue.run).parameters)
        assert parameters == ["self", "until", "stop_condition", "max_events"]


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

    def test_timer_workload_default_call_runs_the_bench_event_count(self):
        """``pump(queue)`` with its defaults is what the benchmark times: it
        dispatches exactly ``BENCH_EVENTS`` events and leaves the next tick
        of every timer but the last to fire pending."""
        queue = EventQueue()
        pump_timer_workload(queue)
        assert queue.processed == BENCH_EVENTS
        queue.run()  # the leftover ticks fire once and reschedule nothing
        assert queue.processed == BENCH_EVENTS + BENCH_TIMERS - 1
        assert queue.empty

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_schedule_script_fires_in_key_order(self, seed):
        """Property-style check: a random interleaving of schedule /
        schedule_at / run steps fires every event, in ``(time, sequence)``
        order (tie-break determinism included)."""
        queue = EventQueue()
        rng = np.random.default_rng(seed)
        fired = []
        expected = []
        pending = {}  # sequence number -> (time, sequence) of each pending event
        scheduled = 0

        def schedule(method, argument, time):
            nonlocal scheduled
            label = scheduled  # every event is scheduled here: == sequence
            scheduled += 1
            method(argument, lambda: fired.append((label, round(queue.now, 9))))
            pending[label] = (time, label)

        def run(max_events=None):
            for label in sorted(pending, key=pending.get)[:max_events]:
                expected.append((label, round(pending.pop(label)[0], 9)))
            queue.run(max_events=max_events)

        for _ in range(300):
            action = rng.integers(0, 10)
            if action < 5:
                delay = float(rng.uniform(0, 2.0))
                schedule(queue.schedule, delay, queue.now + delay)
            elif action < 8:
                # schedule_at clamps times in the past to "now".
                at = float(queue.now + rng.uniform(-0.5, 1.5))
                schedule(queue.schedule_at, at,
                         queue.now + max(0.0, at - queue.now))
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
