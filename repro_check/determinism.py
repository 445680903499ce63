"""DET001: seeded randomness, no wall clock.

The paper's structure-vs-randomness claim is only reproducible because
every random draw in this codebase is a pure function of ``(seed,
counter)``: back-to-back protocol runs at one seed must see the identical
channel, parallel sweep cells must equal serial ones bit for bit, and the
golden-trace tests compare exact ``bit_generator.state``.  One
unseeded generator — or one wall-clock read leaking into simulated
behaviour — silently breaks all of that, and the dynamic tests only notice
once a trace diverges.  This rule rejects the constructs at parse time; the
flow half of the contract (who may draw from which stream) is checked on
running code by the tests under ``tests/invariants``.

Three modules time or watch real work and read the host clock by design
(:data:`CLOCK_MODULES`); the clock half of the rule skips them, the RNG
half does not.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    SourceFile,
    import_aliases,
    register,
    resolve_call_name,
)

#: ``numpy.random`` attributes that are legitimate, seedable constructors
#: (everything else on the module is legacy global-state API).
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: Host-clock callables: simulated behaviour reads the event clock instead.
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})

#: The modules that measure or watch host time, never simulated behaviour:
#: the sweep's elapsed time and worker watchdog, the progress display and
#: ``table_4_1``'s timing loops.  Wall-clock calls in them are no finding.
CLOCK_MODULES = frozenset({
    "src/repro/experiments/orchestrator/engine.py",
    "src/repro/experiments/orchestrator/progress.py",
    "src/repro/experiments/figures.py",
})


@register
class UnseededRandomness(Rule):
    """DET001: randomness must be seeded, time must be simulated."""

    name = "DET001"
    description = ("no unseeded default_rng(), stdlib random or legacy "
                   "np.random.* globals in src/repro, and no wall-clock "
                   "reads outside its three timing modules")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for source in project.under(config.src_prefix):
            tree = source.tree
            if tree is None:
                continue
            aliases = import_aliases(tree)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield from self._check_import(source, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_call(source, node, aliases)

    def _check_import(self, source: SourceFile,
                      node: ast.Import | ast.ImportFrom) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module] if node.module and not node.level else []
        for module in modules:
            if module == "random" or module.startswith("random."):
                yield Finding(
                    self.name, source.relative, node.lineno,
                    "stdlib `random` is process-global state; use "
                    "np.random.default_rng(seed) or repro.rng instead",
                )

    def _check_call(self, source: SourceFile, node: ast.Call,
                    aliases: dict[str, str]) -> Iterator[Finding]:
        resolved = resolve_call_name(node.func, aliases)
        if resolved is None:
            return
        if resolved in _WALLCLOCK:
            if source.relative not in CLOCK_MODULES:
                yield Finding(
                    self.name, source.relative, node.lineno,
                    f"wall-clock call `{resolved}()`: simulated behaviour "
                    "must depend on the event clock, not host time",
                )
            return
        if resolved.endswith("numpy.random.default_rng") \
                or resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield Finding(
                    self.name, source.relative, node.lineno,
                    "unseeded np.random.default_rng(): draws would depend on "
                    "OS entropy; derive the seed from (seed, counter)",
                )
            return
        prefix, _, attr = resolved.rpartition(".")
        if prefix == "numpy.random" and attr not in _NP_RANDOM_OK:
            yield Finding(
                self.name, source.relative, node.lineno,
                f"legacy global-state RNG `np.random.{attr}()`: use a "
                "Generator from np.random.default_rng(seed)",
            )
