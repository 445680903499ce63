"""repro-check: the repo-specific static invariant analyzer.

The differential test suites defend this reproduction's contracts
*dynamically*: full-run traces must match the committed golden traces bit
for bit, every random draw must be a pure function of ``(seed, counter)``, every
``RunConfig`` knob must actually reach the simulator.  A violated contract
only surfaces once a trace diverges — often many PRs later.  This package
enforces the same contracts *statically*, at ``make analyze`` time, as an
AST-walking rule framework with repo-specific rules:

``DET001``
    No unseeded ``np.random.default_rng()``, no stdlib ``random``, no
    legacy ``np.random.*`` global-state draws and no wall clock
    (``time.time`` / ``perf_counter`` / …) inside ``src/repro``.  The
    timing harnesses that legitimately measure wall time carry annotated
    ``# repro: allow-DET001`` exemptions.

``DET002``
    Counter-based purity: channel/mobility realisation classes must not
    store (and later advance) a mutable ``Generator`` between queries —
    randomness is re-derived per ``(seed, counter)`` query instead.

``DET101``
    Whole-program RNG provenance (interprocedural, via the call-graph +
    dataflow layer): no main-RNG value may reach a draw inside a
    counter-based module, no draw may come from a generator stored on an
    instance attribute of one (query-order dependence), no attribute may
    mix generators from multiple construction sites, and every resolvable
    draw must trace back to a declared stream root.

``EVT101``
    Event-handle lifecycle: every handle-returning ``schedule``/
    ``schedule_at`` call must store a handle that some teardown path
    cancels, hand it to its caller, or use the fire-and-forget
    ``schedule_callback`` variants instead (the PR 4 ``_pending_handle``
    leak class, caught statically).

``CFG001``
    Config threading: every ``RunConfig`` field must be consumed somewhere
    in ``src/repro`` (the recurring half-threaded-field bug class) and the
    ``ScenarioSpec`` run/override plumbing must stay intact.

``CFG101``
    Interprocedural config threading: a field only counts as live when a
    read of it is *reachable* from the CLI/figure entry points through
    the call graph — a read in dead code does not thread a knob.

``CACHE001``
    Cache-key coverage: every ``RunConfig`` field must feed the
    content-addressed result store's spec hash (``config_fingerprint``
    enumerates ``fields(RunConfig)`` or names every declared field), so a
    new knob can never alias a stale cached result.

``PERF001``
    Hot-path hygiene: the registered hot modules keep ``__slots__`` on
    their registered classes and stay free of per-event lambda allocation
    and ``print``.

``SUP001``
    Unused-suppression audit (ruff's ``unused-noqa``): every
    ``# repro: allow-<RULE>`` comment must suppress an actual finding of
    a rule that ran in the same invocation.

Style rules (``E501``/``W291``/``W293``/``W191``/``F401``/``SYN001``) from
the old ``scripts/lint.py`` stdlib fallback run through the same registry,
so there is one rule framework and one entrypoint::

    PYTHONPATH=src python -m repro.analysis          # everything + mypy
    PYTHONPATH=src python -m repro.analysis --select DET001,CFG001
    make analyze                                     # the pre-merge gate

Findings are suppressed per line with ``# repro: allow-<RULE>`` (same line
or an immediately preceding comment line) or module-wide with
``# repro: allow-<RULE> file``; see docs/invariants.md for each rule's
rationale and the full suppression syntax.

The interprocedural rules sit on a shared whole-program substrate:
:mod:`repro.analysis.callgraph` (module index, type-lite inference,
call/reference graph, reachability) and :mod:`repro.analysis.dataflow`
(abstract-location value flow for generator and handle provenance), both
built once per project snapshot and memoised.
"""

from repro.analysis.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    all_rules,
    get_rule,
    run_rules,
)

# Importing the rule modules registers their rules with the framework.
from repro.analysis import cache_key  # noqa: F401  (registration import)
from repro.analysis import config_threading  # noqa: F401  (registration import)
from repro.analysis import determinism  # noqa: F401  (registration import)
from repro.analysis import hotpath  # noqa: F401  (registration import)
from repro.analysis import lifecycle  # noqa: F401  (registration import)
from repro.analysis import rng_provenance  # noqa: F401  (registration import)
from repro.analysis import style  # noqa: F401  (registration import)
from repro.analysis import suppressions  # noqa: F401  (registration import)

#: The rule subset `make lint`'s stdlib fallback runs (the old
#: scripts/lint.py checks, now living in :mod:`repro.analysis.style`).
STYLE_RULES = ("SYN001", "E501", "W191", "W291", "W293", "F401")

#: The repo-specific invariant rules (everything that is not style).
INVARIANT_RULES = ("DET001", "DET002", "DET003", "DET101", "EVT101",
                   "CFG001", "CFG101", "CACHE001", "PERF001", "SUP001")

__all__ = [
    "AnalysisConfig",
    "Finding",
    "Project",
    "Rule",
    "STYLE_RULES",
    "INVARIANT_RULES",
    "all_rules",
    "get_rule",
    "run_rules",
]
