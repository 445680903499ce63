"""EVT101: event-handle lifecycle, proven on accept/reject fixtures."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro_check import run_rules
from repro_check.framework import AnalysisConfig

QUEUE = ("class Handle:\n"
         "    def cancel(self):\n"
         "        pass\n"
         "class EventQueue:\n"
         "    def schedule(self, delay, callback):\n"
         "        return Handle()\n"
         "    def schedule_at(self, time, callback):\n"
         "        return Handle()\n"
         "    def schedule_callback(self, delay, callback):\n"
         "        pass\n"
         "    def schedule_callback_at(self, time, callback):\n"
         "        pass\n")


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def evt_config(**overrides) -> AnalysisConfig:
    defaults = dict(
        event_queue_classes=(("src/repro/events.py", "EventQueue"),),
    )
    defaults.update(overrides)
    return replace(AnalysisConfig(), **defaults)


def check(tmp_path, user_text):
    write(tmp_path, "src/repro/events.py", QUEUE)
    write(tmp_path, "src/repro/user.py",
          "from repro.events import EventQueue\n" + user_text)
    return run_rules(tmp_path, config=evt_config(), select=["EVT101"])


def test_discarded_handle_is_rejected(tmp_path):
    findings = check(tmp_path,
                     "def fire(q: EventQueue):\n"
                     "    q.schedule(1.0, fire)\n")
    assert len(findings) == 1
    assert "schedule_callback" in findings[0].message


def test_discarded_schedule_at_suggests_callback_at(tmp_path):
    findings = check(tmp_path,
                     "def fire(q: EventQueue):\n"
                     "    q.schedule_at(1.0, fire)\n")
    assert len(findings) == 1
    assert "schedule_callback_at" in findings[0].message


def test_fire_and_forget_variants_are_accepted(tmp_path):
    assert check(tmp_path,
                 "def fire(q: EventQueue):\n"
                 "    q.schedule_callback(1.0, fire)\n"
                 "    q.schedule_callback_at(2.0, fire)\n") == []


def test_local_handle_never_discharged_is_rejected(tmp_path):
    findings = check(tmp_path,
                     "def fire(q: EventQueue):\n"
                     "    handle = q.schedule(1.0, fire)\n"
                     "    handle = None\n")
    assert len(findings) == 1
    assert "neither" in findings[0].message


def test_local_handle_cancelled_or_escaping_is_accepted(tmp_path):
    assert check(tmp_path,
                 "def cancelled(q: EventQueue):\n"
                 "    handle = q.schedule(1.0, cancelled)\n"
                 "    handle.cancel()\n"
                 "def returned(q: EventQueue):\n"
                 "    handle = q.schedule(1.0, returned)\n"
                 "    return handle\n"
                 "def passed(q: EventQueue, sink):\n"
                 "    handle = q.schedule(1.0, passed)\n"
                 "    sink(handle)\n"
                 "def collected(q: EventQueue):\n"
                 "    handle = q.schedule(1.0, collected)\n"
                 "    return [handle]\n") == []


def test_aliased_local_cancel_is_recognised(tmp_path):
    assert check(tmp_path,
                 "def fire(q: EventQueue):\n"
                 "    handle = q.schedule(1.0, fire)\n"
                 "    alias = handle\n"
                 "    alias.cancel()\n") == []


def test_attr_store_without_any_cancel_is_rejected(tmp_path):
    findings = check(tmp_path,
                     "class Mac:\n"
                     "    def __init__(self, events: EventQueue):\n"
                     "        self.events = events\n"
                     "        self._pending = None\n"
                     "    def arm(self):\n"
                     "        self._pending = self.events.schedule(1.0, self.arm)\n"
                     "    def disarm(self):\n"
                     "        self._pending = None\n")
    assert len(findings) == 1
    assert "_pending_handle" in findings[0].message
    assert "Mac._pending" in findings[0].message


def test_attr_store_with_aliased_cancel_is_accepted(tmp_path):
    assert check(tmp_path,
                 "class Mac:\n"
                 "    def __init__(self, events: EventQueue):\n"
                 "        self.events = events\n"
                 "        self._pending = None\n"
                 "    def arm(self):\n"
                 "        self._pending = self.events.schedule(1.0, self.arm)\n"
                 "    def disarm(self):\n"
                 "        held = self._pending\n"
                 "        if held is not None:\n"
                 "            held.cancel()\n"
                 "        self._pending = None\n") == []


def test_direct_argument_and_return_escape_is_accepted(tmp_path):
    assert check(tmp_path,
                 "def register(handle):\n"
                 "    return handle\n"
                 "def fire(q: EventQueue):\n"
                 "    register(q.schedule(1.0, fire))\n"
                 "def make(q: EventQueue):\n"
                 "    return q.schedule(1.0, fire)\n") == []


def test_untyped_receivers_are_skipped(tmp_path):
    assert check(tmp_path,
                 "def fire(q):\n"
                 "    q.schedule(1.0, fire)\n") == []


def test_shipped_tree_handles_are_all_discharged():
    root = Path(__file__).resolve().parents[2]
    assert run_rules(root, select=["EVT101"]) == []
