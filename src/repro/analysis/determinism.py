"""Determinism rules: DET001 (seeded randomness, no wall clock), DET002
(counter-based purity of channel/mobility realisations) and DET003 (the
same purity contract for fault processes).

The paper's structure-vs-randomness claim is only reproducible because
every random draw in this codebase is a pure function of ``(seed,
counter)``: back-to-back protocol runs at one seed must see the identical
channel, parallel sweep cells must equal serial ones bit for bit, and the
golden-trace tests compare exact ``bit_generator.state``.  One
unseeded generator — or one wall-clock read leaking into simulated
behaviour — silently breaks all of that, and the dynamic tests only notice
once a trace diverges.  These rules reject the constructs at parse time.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
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


def _src_files(project: Project, config: AnalysisConfig) -> Iterator[SourceFile]:
    yield from project.under(config.src_prefix)


@register
class UnseededRandomness(Rule):
    """DET001: randomness must be seeded, time must be simulated."""

    name = "DET001"
    description = ("no unseeded default_rng(), stdlib random, legacy "
                   "np.random.* globals or wall-clock reads in src/repro")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        wallclock = set(config.wallclock_calls)
        for source in _src_files(project, config):
            tree = source.tree
            if tree is None:
                continue
            aliases = import_aliases(tree)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield from self._check_import(source, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_call(source, node, aliases, wallclock)

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
                    aliases: dict[str, str],
                    wallclock: set[str]) -> Iterator[Finding]:
        resolved = resolve_call_name(node.func, aliases)
        if resolved is None:
            return
        if resolved in wallclock:
            yield Finding(
                self.name, source.relative, node.lineno,
                f"wall-clock call `{resolved}()`: simulated behaviour must "
                "depend on the event clock, not host time (annotate "
                "measurement harnesses with `# repro: allow-DET001`)",
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


@register
class CounterBasedPurity(Rule):
    """DET002: realisation classes re-derive RNGs per query, never store one.

    A stored ``Generator`` advances with every draw, so the realisation a
    query sees depends on *how many queries came before it* — exactly the
    query-order dependence the channel/mobility layers must not have
    (their tests assert that epoch k is the same whether it is the first
    or the hundredth thing asked).  The only sound pattern is deriving a
    throwaway generator (or SplitMix64 uniform) from ``(seed, counter)``
    inside the query itself.
    """

    name = "DET002"
    description = ("channel/mobility realisation classes must not hold or "
                   "advance a mutable Generator between queries")

    #: Call targets whose result must never be bound to an instance
    #: attribute inside a purity module.
    _GENERATOR_MAKERS = (
        "numpy.random.default_rng", "numpy.random.Generator",
        "numpy.random.PCG64", "numpy.random.PCG64DXSM", "numpy.random.MT19937",
        "numpy.random.Philox", "numpy.random.SFC64",
    )

    def _modules(self, config: AnalysisConfig) -> tuple[str, ...]:
        return config.purity_modules

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for relative in self._modules(config):
            source = project.get(relative)
            if source is None or source.tree is None:
                continue
            aliases = import_aliases(source.tree)
            for node in ast.walk(source.tree):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None or not self._stores_on_self(targets):
                    continue
                maker = self._generator_call(value, aliases)
                if maker is not None:
                    yield Finding(
                        self.name, source.relative, node.lineno,
                        f"stores `{maker}(...)` on the instance: realisations "
                        "must be pure functions of (seed, counter) — derive a "
                        "local generator per query instead",
                    )

    @staticmethod
    def _stores_on_self(targets: list[ast.expr]) -> bool:
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                return True
        return False

    def _generator_call(self, value: ast.expr,
                        aliases: dict[str, str]) -> str | None:
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call_name(node.func, aliases)
            if resolved in self._GENERATOR_MAKERS:
                return resolved
            # `self.rng.spawn()` / `rng.spawn()`: spawning children of a
            # stored generator is the same mutable-state pattern.
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.endswith(".spawn"):
                return dotted
        return None


@register
class FaultProcessPurity(CounterBasedPurity):
    """DET003: fault processes obey the same counter-based purity contract.

    Crash/recover schedules must be pure functions of ``(seed, node,
    counter)`` for the same reason channel realisations must (DET002): a
    stored ``Generator`` would make the fault timeline depend on query
    order, so a parallel sweep cell would crash different nodes than the
    serial run — the exact serial/parallel divergence the fault
    differential tests pin down.  Same detector, different module list
    (:attr:`AnalysisConfig.fault_modules`).
    """

    name = "DET003"
    description = ("fault-process classes must not hold or advance a "
                   "mutable Generator between queries")

    def _modules(self, config: AnalysisConfig) -> tuple[str, ...]:
        return config.fault_modules
