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


# -- every invariant rule has a bug it exists to catch ---------------------- #

#: rule -> (fixture, what its finding names).
#: ``wallclock_seed`` is reconstructed: a default seed read from the host clock.
CORPUS = {
    "DET001": ("wallclock_seed", "time.time"),
}


@pytest.mark.parametrize("rule", sorted(set(all_rules()) - set(STYLE_RULES)))
def test_every_invariant_rule_catches_a_bug_in_the_corpus(rule, tmp_path):
    assert rule in CORPUS, (
        f"{rule} catches no historical or reconstructed bug: add its fixture "
        "to the corpus or delete the rule")
    fixture, named = CORPUS[rule]
    root = deploy(tmp_path, fixture)
    findings = run_rules(root, select=[rule])
    assert findings and {finding.rule for finding in findings} == {rule}
    assert any(named in finding.message for finding in findings)
