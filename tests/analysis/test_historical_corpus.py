"""The reconstructed bug corpus of the analyzer's invariant rules.

Each fixture under ``tests/analysis/fixtures/historical/`` rebuilds the
shape of a bug the rule exists to reject, and the test proves the rule
rejects it.  The bug classes the analyzer no longer states (RNG provenance,
config threading) keep their corpus beside the run-time checks that took
them over, under ``tests/invariants``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro_check import STYLE_RULES, all_rules, run_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "historical"


def deploy(tmp_path, name: str) -> Path:
    shutil.copytree(FIXTURES / name / "src", tmp_path / "src")
    return tmp_path


def patch(root, relative, old, new):
    path = root / relative
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


# -- every invariant rule has a bug it exists to catch ---------------------- #

#: A stale exemption, as an edit to the ``wallclock_seed`` tree: the clock
#: read became a fixed default and its comment stayed, ready to swallow the
#: next wall-clock read on that line.  (Spelled here, not in a fixture file,
#: where the repository's own SUP001 audit would find it.)
STALE_EXEMPTION = (
    "src/repro/workload.py",
    "        seed = int(time.time())\n",
    "        # repro: allow-DET001 — any seed will do\n"
    "        seed = 0\n")

#: rule -> (fixture, edit or None, what its finding names).
#: ``wallclock_seed`` is reconstructed: a default seed read from the host clock.
CORPUS = {
    "DET001": ("wallclock_seed", None, "time.time"),
    "SUP001": ("wallclock_seed", STALE_EXEMPTION, "allow-DET001"),
}


@pytest.mark.parametrize("rule", sorted(set(all_rules()) - set(STYLE_RULES)))
def test_every_invariant_rule_catches_a_bug_in_the_corpus(rule, tmp_path):
    assert rule in CORPUS, (
        f"{rule} catches no historical or reconstructed bug: add its fixture "
        "to the corpus or delete the rule")
    fixture, edit, named = CORPUS[rule]
    root = deploy(tmp_path, fixture)
    if edit is not None:
        patch(root, *edit)
    findings = run_rules(root, select=[rule])
    assert findings and {finding.rule for finding in findings} == {rule}
    assert any(named in finding.message for finding in findings)
