"""repro-check: the repo-specific static invariant analyzer.

The test suites defend this reproduction's contracts on running code:
full-run traces must match the committed golden traces bit for bit, and the
tests under ``tests/invariants`` check that each counter-based model is a
pure function of its seed, that only the medium and the MACs read the main
generator and that every ``RunConfig`` knob changes a run.  This package
states, at ``make analyze`` time, the contracts that are properties of the
source text (no unseeded generator, no wall clock, the style rules): an
AST-walking rule framework with one rule per invariant.  It is tooling, not
simulator: it lives beside ``src/`` (like ``bench/``), imports nothing from
``repro`` and nothing in ``repro`` imports it, so it is neither installed
with the package nor part of the result store's code key.

``DET001``
    No unseeded ``np.random.default_rng()``, no stdlib ``random`` and no
    legacy ``np.random.*`` global-state draws inside ``src/repro``, and no
    wall clock (``time.time`` / ``perf_counter`` / …) there outside the
    three modules that time or watch real work
    (``repro_check.determinism.CLOCK_MODULES``).

The style rules (``E501``/``W291``/``W293``/``W191``/``F401``/``SYN001``) run
through the same registry — with no ruff in a hermetic container they are
the lint — so there is one rule framework and one entry point, run from the
repository root::

    python3 -m repro_check                        # everything + mypy
    python3 -m repro_check --select DET001
    make analyze                                  # the pre-merge gate
    make lint                                     # the style rules alone

There is no per-line exemption syntax; see docs/invariants.md for each
rule's rationale.
"""

from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    all_rules,
    get_rule,
    run_rules,
)

# Importing the rule modules registers their rules with the framework.
from repro_check import determinism  # noqa: F401  (registration import)
from repro_check import style  # noqa: F401  (registration import)

#: The style rules: what ``make lint`` selects.  Every other registered rule
#: is a repo-specific invariant.
STYLE_RULES = ("SYN001", "E501", "W191", "W291", "W293", "F401")

__all__ = [
    "AnalysisConfig",
    "Finding",
    "Project",
    "Rule",
    "STYLE_RULES",
    "all_rules",
    "get_rule",
    "run_rules",
]
