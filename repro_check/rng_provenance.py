"""DET101: whole-program RNG provenance.

The paper's structure-for-randomness trade is only reproducible because
every random draw in the simulator is attributable to a *declared stream
root*: the main simulation generator (seeded once from ``RunConfig.seed``
and read through its one word stream, ``Simulator.words``), or a
throwaway generator derived per query from a ``(seed, stream, counter)``
tuple (channel, mobility, fault, refresh-probe streams).  DET001 polices
construction per file; DET101 uses the dataflow layer to police *flow*
across function boundaries:

* **main-RNG leakage** — a value tagged with the main root arrives at a
  draw inside a counter-based module.  One such draw advances the main
  stream a data-dependent number of times, which desynchronises every
  downstream consumer (the exact divergence the golden-trace tests
  exist to catch, now rejected at parse time);
* **query-order dependence** — a draw inside a counter-based module whose
  receiver was read from an instance attribute holding a generator.
  However the generator got there (built in ``__init__``, ``.spawn()``ed
  from another, or constructed elsewhere and passed in), its draw count
  now depends on how many queries came before (the PR 5
  shared-Onoe-window bug class);
* **stream confusion** — one instance attribute is *directly* assigned
  generators from two or more distinct construction sites, so draws
  through it mix streams depending on which assignment ran last.
  (Generators arriving through a parameter do not count: a caller
  injecting its own stream through ``__init__`` is choosing a stream,
  not mixing them);
* **unattributable draws** — the receiver's provenance fully resolves yet
  contains no seeded root (e.g. a generator built without an explicit
  seed threaded through helpers).

Receivers the dataflow cannot resolve (bound-method aliases, values from
outside the project) are *skipped*, not flagged: DET101 trades known
false negatives for zero guessing, and documents that trade here.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro_check.callgraph import FunctionInfo, get_callgraph, walk_unit
from repro_check.dataflow import MAIN_ATOM, DataFlow, get_dataflow
from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    register,
)

#: ``Generator`` methods that advance the stream, and the word-reading
#: methods of :class:`repro.rng.WordStream`: the draw sites.
_DRAW_METHODS = frozenset({
    "random", "integers", "normal", "uniform", "choice", "shuffle",
    "permutation", "exponential", "standard_normal", "bytes",
    "take", "word", "bounded"})


@register
class RngProvenance(Rule):
    """DET101: every draw must be attributable to a declared stream root."""

    name = "DET101"
    description = ("interprocedural RNG provenance: no main-RNG draws or "
                   "stored-generator query-order dependence inside "
                   "counter-based modules, no attribute mixing generators "
                   "from multiple construction sites")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        graph = get_callgraph(project, config)
        flow = get_dataflow(project, config)
        for info in graph.functions.values():
            if info.source.relative in config.counter_modules:
                yield from self._check_draws(info, flow)
        yield from self._check_stream_confusion(graph, flow)

    # -- draws inside counter-based modules -------------------------------- #

    def _check_draws(self, info: FunctionInfo,
                     flow: DataFlow) -> Iterator[Finding]:
        # Shallow walk: nested defs are their own FunctionInfo units, so
        # descending into them here would double-report every draw.
        for node in walk_unit(info.node.body):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS):
                continue
            tags = flow.expr_tags(node.func.value, info)
            if not tags:
                continue  # unresolvable receiver: skip, never guess
            relative = info.source.relative
            if MAIN_ATOM in tags:
                yield Finding(
                    self.name, relative, node.lineno,
                    f"`.{node.func.attr}()` draws from the *main* simulation "
                    "RNG inside a counter-based module: this advances the "
                    "main stream a query-dependent number of times — derive "
                    "a throwaway generator from (seed, counter) instead",
                )
                continue
            stored = sorted(tag for tag in tags if tag[0] == "stored")
            if stored:
                _, class_id, attr = stored[0]
                owner = class_id.rpartition(":")[2]
                yield Finding(
                    self.name, relative, node.lineno,
                    f"`.{node.func.attr}()` draws from a generator stored on "
                    f"`{owner}.{attr}`: the realisation now depends on how "
                    "many queries preceded it (query-order dependence) — "
                    "re-derive the generator per (seed, counter) query",
                )
                continue
            if not any(tag[0] == "gen" and tag[3] for tag in tags):
                yield Finding(
                    self.name, relative, node.lineno,
                    f"`.{node.func.attr}()` resolves to no declared stream "
                    "root: every draw must trace back to the main RNG or a "
                    "seeded (seed, counter) construction site",
                )

    # -- attribute stream confusion (whole tree) --------------------------- #

    def _check_stream_confusion(self, graph, flow: DataFlow) -> Iterator[Finding]:
        for location, atoms in sorted(flow.direct_attr_atoms.items()):
            sites = sorted({(atom[1], atom[2]) for atom in atoms
                            if atom[0] == "gen" and atom[3]})
            if len(sites) < 2:
                continue
            cls = graph.classes.get(location[1])
            if cls is None:
                continue
            listed = ", ".join(f"{path}:{line}" for path, line in sites)
            yield Finding(
                self.name, cls.source.relative, cls.node.lineno,
                f"`{cls.name}.{location[2]}` is assigned generators from "
                f"{len(sites)} distinct construction sites ({listed}): draws "
                "through it mix streams depending on which assignment ran "
                "last — give each stream its own attribute",
            )
