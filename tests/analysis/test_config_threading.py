"""CFG101: the un-threaded-field detector, proven live against the real tree.

The acceptance test of the rule: copy the shipped ``src/repro`` package,
inject a fake ``RunConfig`` field nobody reads, and assert the analyzer
rejects the tree (while the unmodified copy stays clean).  That every field
is overridable, round-trips and keys the cache is stated on the running code
by ``tests/scenarios/test_spec.py``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro_check import run_rules

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
RUNNER = "src/repro/experiments/runner.py"


def copy_tree(tmp_path) -> Path:
    shutil.copytree(REPO_SRC, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_shipped_tree_is_fully_threaded(tmp_path):
    root = copy_tree(tmp_path)
    assert run_rules(root, select=["CFG101"]) == []


def test_fake_unthreaded_field_is_rejected(tmp_path):
    root = copy_tree(tmp_path)
    runner = root / RUNNER
    text = runner.read_text(encoding="utf-8")
    marker = "    seed: int = 0"
    assert marker in text  # the injection anchor still exists
    runner.write_text(text.replace(
        marker, marker + "\n    fake_knob: int = 0", 1), encoding="utf-8")
    findings = run_rules(root, select=["CFG101"])
    assert len(findings) == 1
    assert "fake_knob" in findings[0].message
    assert "never read" in findings[0].message
    assert findings[0].path == RUNNER


def test_validation_in_post_init_does_not_count_as_threading(tmp_path):
    root = copy_tree(tmp_path)
    runner = root / RUNNER
    text = runner.read_text(encoding="utf-8")
    marker = "    seed: int = 0"
    injected = text.replace(
        marker, marker + "\n    fake_knob: int = 0", 1).replace(
        "    def __post_init__(self) -> None:",
        "    def __post_init__(self) -> None:\n"
        "        if self.fake_knob < 0:\n"
        "            raise ValueError(\"fake_knob must be non-negative\")", 1)
    assert "fake_knob < 0" in injected
    runner.write_text(injected, encoding="utf-8")
    findings = run_rules(root, select=["CFG101"])
    assert len(findings) == 1 and "fake_knob" in findings[0].message
