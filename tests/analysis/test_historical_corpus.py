"""The reconstructed historical-bug corpus.

Each fixture under ``tests/analysis/fixtures/historical/`` rebuilds the
shape of a bug a past PR actually shipped and later had to chase
dynamically; each test proves the new whole-program rules reject that
shape — and accept the repaired version, so the corpus also pins rule
specificity.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro_check import STYLE_RULES, all_rules, run_rules
from repro_check.framework import AnalysisConfig

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "historical"


def deploy(tmp_path, name: str) -> Path:
    shutil.copytree(FIXTURES / name / "src", tmp_path / "src")
    return tmp_path


def patch(root, relative, old, new):
    path = root / relative
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


# -- PR 5: the shared Onoe window -> DET101 --------------------------------- #

PR5_WINDOW_CONFIG = dict(
    counter_modules=("src/repro/channel.py",),
)


def test_pr5_shared_onoe_window_is_flagged(tmp_path):
    root = deploy(tmp_path, "pr5_onoe_window")
    config = replace(AnalysisConfig(), **PR5_WINDOW_CONFIG)
    findings = run_rules(root, config=config, select=["DET101"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/channel.py"
    assert "query-order" in findings[0].message
    assert "OnoeWindow.rng" in findings[0].message


def test_pr5_per_query_window_repair_is_accepted(tmp_path):
    root = deploy(tmp_path, "pr5_onoe_window")
    patch(root, "src/repro/channel.py",
          "class OnoeWindow:\n"
          '    """A per-link loss window drawing from an injected generator."""\n'
          "\n"
          "    def __init__(self, rng):\n"
          "        self.rng = rng\n"
          "\n"
          "    def sample_loss(self):\n"
          "        return self.rng.random()\n",
          "import numpy as np\n"
          "\n"
          "\n"
          "class OnoeWindow:\n"
          '    """A per-link loss window re-deriving its stream per query."""\n'
          "\n"
          "    def __init__(self, seed):\n"
          "        self.seed = seed\n"
          "        self.counter = 0\n"
          "\n"
          "    def sample_loss(self):\n"
          "        self.counter += 1\n"
          "        rng = np.random.default_rng((self.seed, self.counter))\n"
          "        return rng.random()\n")
    patch(root, "src/repro/harness.py",
          "def build_windows():\n"
          "    shared = np.random.default_rng(1234)\n"
          "    return OnoeWindow(shared), OnoeWindow(shared)\n",
          "def build_windows():\n"
          "    return OnoeWindow(1234), OnoeWindow(1235)\n")
    config = replace(AnalysisConfig(), **PR5_WINDOW_CONFIG)
    assert run_rules(root, config=config, select=["DET101"]) == []


# -- PR 5: the node-0 dead-read knob -> CFG101 ------------------------------ #

PR5_NODE0_CONFIG = dict(
    config_class=("src/repro/runner.py", "RunConfig"),
    entry_modules=("repro.cli",),
)


def test_pr5_node0_dead_read_passes_cfg001_but_fails_cfg101(tmp_path):
    root = deploy(tmp_path, "pr5_node0_truthiness")
    config = replace(AnalysisConfig(), **PR5_NODE0_CONFIG)
    # A text-level check (the deleted CFG001) is satisfied — the field *is*
    # read somewhere ...
    assert "config.node0_at_origin" in (
        root / "src/repro/placement.py").read_text(encoding="utf-8")
    # ... but the read is unreachable from the entry point.
    findings = run_rules(root, config=config, select=["CFG101"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/runner.py"
    assert "node0_at_origin" in findings[0].message
    assert "dead code" in findings[0].message


def test_pr5_node0_repair_restores_the_call_site(tmp_path):
    root = deploy(tmp_path, "pr5_node0_truthiness")
    patch(root, "src/repro/cli.py",
          "from repro.runner import RunConfig\n",
          "from repro.placement import place_nodes\n"
          "from repro.runner import RunConfig\n")
    patch(root, "src/repro/cli.py",
          "def simulate(config: RunConfig):\n"
          "    return config.seed\n",
          "def simulate(config: RunConfig):\n"
          "    positions = place_nodes(config)\n"
          "    return (config.seed, positions)\n")
    config = replace(AnalysisConfig(), **PR5_NODE0_CONFIG)
    assert run_rules(root, config=config, select=["CFG101"]) == []


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

#: rule -> (fixture, edit or None, config overrides, what its finding names).
#: ``wallclock_seed`` is reconstructed: a default seed read from the host clock.
CORPUS = {
    "DET101": ("pr5_onoe_window", None, PR5_WINDOW_CONFIG, "OnoeWindow.rng"),
    "CFG101": ("pr5_node0_truthiness", None, PR5_NODE0_CONFIG, "node0_at_origin"),
    "DET001": ("wallclock_seed", None, {}, "time.time"),
    "SUP001": ("wallclock_seed", STALE_EXEMPTION, {}, "allow-DET001"),
}


@pytest.mark.parametrize("rule", sorted(set(all_rules()) - set(STYLE_RULES)))
def test_every_invariant_rule_catches_a_bug_in_the_corpus(rule, tmp_path):
    assert rule in CORPUS, (
        f"{rule} catches no historical or reconstructed bug: add its fixture "
        "to the corpus or delete the rule")
    fixture, edit, overrides, named = CORPUS[rule]
    root = deploy(tmp_path, fixture)
    if edit is not None:
        patch(root, *edit)
    config = replace(AnalysisConfig(), **overrides)
    findings = run_rules(root, config=config, select=[rule])
    assert findings and {finding.rule for finding in findings} == {rule}
    assert any(named in finding.message for finding in findings)
