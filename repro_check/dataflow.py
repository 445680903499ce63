"""Interprocedural value flow: where do generators come from, where do they go.

A lightweight Andersen-style points-to analysis over *abstract locations*
— flow-insensitive, context-insensitive, and deliberately so: the rule
built on it (DET101 RNG provenance) asks reachability questions ("can a
main-RNG value arrive at this draw site?") where merging all paths is the
sound direction.

Locations:

* ``("local", func_id, name)`` — a function's parameter or local;
* ``("attr", class_id, name)`` — an instance attribute, merged per class;
* ``("ret", func_id)`` — a function's return value;
* ``("global", module, name)`` — a module-level binding.

Atoms are the values the rules track, seeded at construction sites:

* ``("gen", path, line, seeded)`` — one per ``numpy.random`` generator
  construction (``seeded`` when the call takes an explicit seed) and one
  per ``.spawn()`` call, whose children are new generators (an element
  taken out of the list, ``rng.spawn(1)[0]``, carries the list's atoms);
* ``("main",)`` — a pseudo-atom injected at the configured main-RNG
  attribute (:attr:`AnalysisConfig.rng_main_root`), so "did the main
  stream leak here" is one set-membership test;
* ``("stored", class_id, attr)`` — injected at every counter-module
  instance attribute that holds a generator, marking values whose draw
  count depends on query order.

Assignments, attribute stores, returns and resolved call argument/param
bindings become edges; :meth:`DataFlow.tags` answers which atoms reach a
location after one worklist propagation.  Unresolvable expressions
contribute *no* edges — a receiver the analysis cannot attribute stays
untagged and the rules skip it (documented false-negative) rather than
guess (false-positive).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_check.callgraph import (
    CallGraph,
    FunctionInfo,
    get_callgraph,
    walk_unit,
)
from repro_check.framework import (
    AnalysisConfig,
    Project,
    resolve_call_name,
)

#: ``numpy.random`` callables whose results are tracked generator values.
GENERATOR_MAKERS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM", "numpy.random.MT19937",
    "numpy.random.Philox", "numpy.random.SFC64",
})

Location = tuple
Atom = tuple

MAIN_ATOM: Atom = ("main",)


class DataFlow:
    """The propagated location graph for one project snapshot."""

    def __init__(self, graph: CallGraph, config: AnalysisConfig) -> None:
        self.graph = graph
        self.config = config
        #: source (atom or location) -> destination locations
        self.forward: dict[tuple, set[Location]] = {}
        self.atoms: set[Atom] = set()
        #: attr location -> generator atoms assigned to it *directly* (the
        #: construction call is the assignment's right-hand side, not a
        #: value that arrived through a parameter).  Stream-confusion
        #: checks use this: injection of a caller-owned generator through
        #: ``__init__`` is the caller picking a stream, not mixing them.
        self.direct_attr_atoms: dict[Location, set[Atom]] = {}
        self._locals_cache: dict[str, frozenset[str]] = {}
        self._tags: dict[Location, set[Atom]] = {}
        self._build()
        self._propagate()

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        for module, source in self.graph.modules.items():
            if source.tree is None:
                continue
            holder = FunctionInfo(id=module, module=module, qualname="",
                                  node=None, source=source)  # type: ignore[arg-type]
            for node in walk_unit(source.tree.body):
                self._process(node, holder)
        for info in self.graph.functions.values():
            for node in ast.walk(info.node):
                self._process(node, info)

    def _process(self, node: ast.AST, info: FunctionInfo) -> None:
        if isinstance(node, ast.Assign):
            sources = self._value_sources(node.value, info)
            for target in node.targets:
                self._bind_target(target, sources, info)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            sources = self._value_sources(node.value, info)
            self._bind_target(node.target, sources, info)
        elif isinstance(node, ast.Return) and node.value is not None \
                and info.node is not None:
            for source in self._value_sources(node.value, info):
                self._edge(source, ("ret", info.id))
        elif isinstance(node, ast.Call):
            self._bind_call_args(node, info)

    def _bind_target(self, target: ast.expr, sources: list[tuple],
                     info: FunctionInfo) -> None:
        if not sources:
            return
        for location in self._target_locations(target, info):
            for source in sources:
                self._edge(source, location)
                if location[0] == "attr" and source in self.atoms:
                    self.direct_attr_atoms.setdefault(
                        location, set()).add(source)

    def _target_locations(self, target: ast.expr,
                          info: FunctionInfo) -> Iterator[Location]:
        if isinstance(target, ast.Name):
            if info.node is None:
                yield ("global", info.module, target.id)
            else:
                yield ("local", info.id, target.id)
        elif isinstance(target, ast.Attribute):
            for owner in self.graph.expr_types(target.value, info):
                yield ("attr", owner, target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking loses element identity; bind every element to
            # every source (over-approximation in the safe direction).
            for element in target.elts:
                yield from self._target_locations(element, info)

    def _bind_call_args(self, call: ast.Call, info: FunctionInfo) -> None:
        callee = self.graph.resolve_call(call, info)
        if callee is None:
            return
        cls = self.graph.classes.get(callee)
        if cls is not None:
            callee = cls.methods.get("__init__")
            if callee is None:
                return
        func = self.graph.functions.get(callee)
        if func is None:
            return
        params = list(func.params)
        if func.class_id is not None and params[:1] == ["self"]:
            params = params[1:]
        for position, arg in enumerate(call.args):
            if position >= len(params):
                break
            self._bind_argument(arg, ("local", func.id, params[position]), info)
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in func.params:
                self._bind_argument(keyword.value,
                                    ("local", func.id, keyword.arg), info)

    def _bind_argument(self, value: ast.expr, param: Location,
                       info: FunctionInfo) -> None:
        for source in self._value_sources(value, info):
            self._edge(source, param)

    def _value_sources(self, expr: ast.expr,
                       info: FunctionInfo) -> list[tuple]:
        """Atoms/locations an expression's value may come from."""
        if isinstance(expr, ast.Name):
            if info.node is not None and expr.id in self._function_locals(info):
                return [("local", info.id, expr.id)]
            return [("global", info.module, expr.id)]
        if isinstance(expr, ast.Attribute):
            return [("attr", owner, expr.attr)
                    for owner in self.graph.expr_types(expr.value, info)]
        if isinstance(expr, ast.Call):
            maker = resolve_call_name(
                expr.func, self.graph._aliases.get(info.module, {}))
            spawned = isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "spawn"
            if maker in GENERATOR_MAKERS or spawned:
                seeded = spawned or bool(expr.args or expr.keywords)
                atom = ("gen", info.source.relative, expr.lineno, seeded)
                self.atoms.add(atom)
                return [atom]
            callee = self.graph.resolve_call(expr, info)
            if callee is not None and callee in self.graph.functions:
                return [("ret", callee)]
            return []
        if isinstance(expr, ast.IfExp):
            return self._value_sources(expr.body, info) \
                + self._value_sources(expr.orelse, info)
        if isinstance(expr, ast.BoolOp):
            sources: list[tuple] = []
            for value in expr.values:
                sources += self._value_sources(value, info)
            return sources
        if isinstance(expr, (ast.Await, ast.NamedExpr, ast.Subscript)):
            return self._value_sources(expr.value, info)
        return []

    def _function_locals(self, info: FunctionInfo) -> frozenset[str]:
        cached = self._locals_cache.get(info.id)
        if cached is None:
            names = set(info.params)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    names.add(node.id)
            cached = frozenset(names)
            self._locals_cache[info.id] = cached
        return cached

    def _edge(self, source: tuple, destination: Location) -> None:
        if source != destination:
            self.forward.setdefault(source, set()).add(destination)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def _propagate(self) -> None:
        # Round 1: construction-site atoms flow to every location they
        # reach; the configured main-root attribute additionally injects
        # the MAIN pseudo-atom.
        seeds: list[tuple[tuple, Atom]] = [(atom, atom) for atom in self.atoms]
        main = self.main_root_location()
        if main is not None:
            seeds.append((main, MAIN_ATOM))
        self._spread(seeds)
        # Round 2: every counter-module attribute holding a generator is a
        # query-order hazard; values read from it carry a STORED atom.
        counter = self.config.counter_modules
        stored_seeds: list[tuple[tuple, Atom]] = []
        for location, tags in list(self._tags.items()):
            if location[0] != "attr":
                continue
            cls = self.graph.classes.get(location[1])
            if cls is None or cls.source.relative not in counter:
                continue
            if any(atom[0] in ("gen", "main") for atom in tags):
                stored_seeds.append(
                    (location, ("stored", location[1], location[2])))
        self._spread(stored_seeds)

    def _spread(self, seeds: list[tuple[tuple, Atom]]) -> None:
        work: list[tuple[tuple, Atom]] = []
        for source, atom in seeds:
            if source == atom:  # construction-site atom: start at its sinks
                for destination in self.forward.get(source, ()):
                    work.append((destination, atom))
            else:  # pseudo-atom injected at an existing location
                work.append((source, atom))
        while work:
            location, atom = work.pop()
            tags = self._tags.setdefault(location, set())
            if atom in tags:
                continue
            tags.add(atom)
            for destination in self.forward.get(location, ()):
                work.append((destination, atom))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def main_root_location(self) -> Location | None:
        path, class_name, attr = self.config.rng_main_root
        class_id = self.graph.class_id_for(path, class_name)
        return ("attr", class_id, attr) if class_id is not None else None

    def tags(self, location: Location) -> frozenset[Atom]:
        return frozenset(self._tags.get(location, ()))

    def expr_tags(self, expr: ast.expr, info: FunctionInfo) -> frozenset[Atom]:
        """Atoms reaching an expression: its locations' tags plus any
        construction atom the expression itself is."""
        found: set[Atom] = set()
        for source in self._value_sources(expr, info):
            if source in self.atoms:
                found.add(source)
            else:
                found |= self._tags.get(source, set())
        return frozenset(found)


def get_dataflow(project: Project, config: AnalysisConfig) -> DataFlow:
    """One memoised :class:`DataFlow` per project snapshot."""
    key = (config.src_prefix, config.src_root, config.rng_main_root,
           config.counter_modules)
    cache = getattr(project, "_dataflow_cache", None)
    if cache is None:
        cache = {}
        project._dataflow_cache = cache  # type: ignore[attr-defined]
    flow = cache.get(key)
    if flow is None:
        flow = DataFlow(get_callgraph(project, config), config)
        cache[key] = flow
    return flow
