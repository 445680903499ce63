"""PERF001 fixture tests: hot-path hygiene."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import run_rules
from repro.analysis.framework import AnalysisConfig


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def hot_config():
    return replace(
        AnalysisConfig(),
        hot_modules=("src/repro/hot.py",),
        slots_classes={"src/repro/hot.py": ("Handle", "Payload")},
    )


HOT_OK = """
from dataclasses import dataclass


class Handle:
    __slots__ = ("time",)


@dataclass(slots=True)
class Payload:
    data: bytes
"""


def test_perf001_accepts_slots_and_clean_module(tmp_path):
    write(tmp_path, "src/repro/hot.py", HOT_OK)
    assert run_rules(tmp_path, config=hot_config(), select=["PERF001"]) == []


def test_perf001_flags_lost_slots(tmp_path):
    write(tmp_path, "src/repro/hot.py",
          HOT_OK.replace('    __slots__ = ("time",)', "    pass"))
    findings = run_rules(tmp_path, config=hot_config(), select=["PERF001"])
    assert any("__slots__" in f.message for f in findings)


def test_perf001_flags_missing_registered_class(tmp_path):
    write(tmp_path, "src/repro/hot.py",
          HOT_OK.replace("class Handle:", "class Renamed:"))
    findings = run_rules(tmp_path, config=hot_config(), select=["PERF001"])
    assert any("not found" in f.message for f in findings)


def test_perf001_flags_lambda_in_hot_module(tmp_path):
    write(tmp_path, "src/repro/hot.py", HOT_OK + "f = lambda: None\n")
    findings = run_rules(tmp_path, config=hot_config(), select=["PERF001"])
    assert any("lambda" in f.message for f in findings)


def test_perf001_flags_print_in_hot_module(tmp_path):
    write(tmp_path, "src/repro/hot.py", HOT_OK + 'print("hi")\n')
    findings = run_rules(tmp_path, config=hot_config(), select=["PERF001"])
    assert any("print" in f.message for f in findings)


def test_perf001_suppression_covers_legacy_paths(tmp_path):
    write(tmp_path, "src/repro/hot.py",
          HOT_OK + "f = lambda: None  # repro: allow-PERF001 legacy path\n")
    assert run_rules(tmp_path, config=hot_config(), select=["PERF001"]) == []
