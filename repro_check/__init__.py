"""repro-check: the repo-specific static invariant analyzer.

The differential test suites defend this reproduction's contracts
*dynamically*: full-run traces must match the committed golden traces bit
for bit, every random draw must be a pure function of ``(seed, counter)``, every
``RunConfig`` knob must actually reach the simulator.  A violated contract
only surfaces once a trace diverges — often many PRs later.  This package
states, at ``make analyze`` time, the contracts no test states: an
AST-walking rule framework with one rule per invariant.  It is tooling, not
simulator: it lives beside ``src/`` (like ``bench/``), imports nothing from
``repro`` and nothing in ``repro`` imports it, so it is neither installed
with the package nor part of the result store's code key.

``DET001``
    No unseeded ``np.random.default_rng()``, no stdlib ``random``, no
    legacy ``np.random.*`` global-state draws and no wall clock
    (``time.time`` / ``perf_counter`` / …) inside ``src/repro``.  The
    timing harnesses that legitimately measure wall time carry annotated
    ``# repro: allow-DET001`` exemptions.

``DET101``
    Whole-program RNG provenance (interprocedural, via the call-graph +
    dataflow layer): no main-RNG value may reach a draw inside a
    counter-based module (channel, mobility, faults), no draw may come
    from a generator stored on an instance attribute of one (query-order
    dependence), no attribute may mix generators from multiple
    construction sites, and every resolvable draw must trace back to a
    declared stream root.

``CFG101``
    Config threading: every ``RunConfig`` field must be read by code
    *reachable* from the CLI/figure entry points through the call graph —
    a read in dead code does not thread a knob (the recurring
    half-threaded-field bug class).

``SUP001``
    Unused-suppression audit (ruff's ``unused-noqa``): every
    ``# repro: allow-<RULE>`` comment must suppress an actual finding of
    a rule that ran in the same invocation.

The style rules (``E501``/``W291``/``W293``/``W191``/``F401``/``SYN001``) run
through the same registry — with no ruff in a hermetic container they are
the lint — so there is one rule framework and one entry point, run from the
repository root::

    python3 -m repro_check                        # everything + mypy
    python3 -m repro_check --select DET001,CFG101
    make analyze                                  # the pre-merge gate
    make lint                                     # the style rules alone

Findings are suppressed per line with ``# repro: allow-<RULE>`` (same line
or an immediately preceding comment line) or module-wide with
``# repro: allow-<RULE> file``; see docs/invariants.md for each rule's
rationale and the full suppression syntax.

The interprocedural rules sit on a shared whole-program substrate:
:mod:`repro_check.callgraph` (module index, type-lite inference,
call/reference graph, reachability) and :mod:`repro_check.dataflow`
(abstract-location value flow for generator provenance), both
built once per project snapshot and memoised.
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
from repro_check import config_threading  # noqa: F401  (registration import)
from repro_check import determinism  # noqa: F401  (registration import)
from repro_check import rng_provenance  # noqa: F401  (registration import)
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
