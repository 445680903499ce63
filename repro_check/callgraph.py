"""The whole-program layer: module index, type-lite inference, call graph.

The per-file rules of PR 7 stop at function boundaries, but the bug
classes this analyzer exists for — a main-RNG draw smuggled into a
counter-based module through a helper, a config field whose only reader
is dead code — are *interprocedural*.  This module builds the
shared substrate the cross-function rules query:

* a **module index** — repo paths under ``src_root`` mapped to dotted
  module names, so ``from repro.sim.events import EventQueue`` resolves to
  a project class and not an opaque string;
* **type-lite inference** — a deliberately small nominal type system:
  ``self`` is the enclosing class, annotated parameters resolve through
  the import table (string forward references included), locals and
  instance attributes pick up the classes of the constructor calls and
  typed values assigned to them, and return annotations type call results.
  Unresolvable expressions stay untyped rather than guessed;
* a **reference graph** — every call *and* every by-name mention of a
  project function/class (callbacks are passed by name everywhere in an
  event-driven simulator) becomes an edge, so
  :meth:`CallGraph.reachable_from` can answer "does this code ever run?"
  generously enough for a liveness rule to trust its negatives.

Everything is a pure function of the parsed :class:`~repro_check
.framework.Project`; :func:`get_callgraph` memoises one graph per project
snapshot so the interprocedural rules share a single build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro_check.framework import (
    AnalysisConfig,
    Project,
    SourceFile,
    import_aliases,
)

#: Code-unit id forms (strings throughout, cheap to hash and debug):
#:   module top-level   ``repro.sim.events``
#:   function           ``repro.sim.events:pump_timer_workload``
#:   method             ``repro.sim.events:EventQueue.schedule``
#:   class              ``repro.sim.events:EventQueue`` (ClassInfo.id)


def walk_unit(roots: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class bodies.

    Defining a function does not run it, so a nested def's body belongs to
    its *own* code unit — but decorators, parameter defaults and
    base-class expressions execute at definition time and stay with the
    enclosing unit.  Every unit-scoped walk in the analysis engine (edge
    collection, rule site scans) uses this walker so no site is ever
    attributed to two units.
    """
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        yield node
        # The guard applies to the node being expanded (a nested def can
        # arrive as a root: it is a *statement* of the enclosing body).
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d)
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list)
            stack.extend(node.bases)
        else:
            stack.extend(ast.iter_child_nodes(node))


def module_name_for(relative: str, src_root: str) -> str | None:
    """Dotted module name for a repo-relative path, or None outside src."""
    prefix = src_root.rstrip("/") + "/"
    if not relative.startswith(prefix) or not relative.endswith(".py"):
        return None
    parts = relative[len(prefix):-3].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


@dataclass
class FunctionInfo:
    """One function or method, addressable by its unit id."""

    id: str
    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    class_id: str | None = None
    params: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """One class: its methods and (project-resolvable) bases."""

    id: str
    name: str
    module: str
    node: ast.ClassDef
    source: SourceFile
    methods: dict[str, str] = field(default_factory=dict)
    base_ids: tuple[str, ...] = ()


def _annotation_names(annotation: ast.expr | None) -> Iterator[str]:
    """Candidate class names in an annotation (unions split, quotes dropped).

    ``"ChannelSpec | None"``, ``Optional[Simulator]`` and plain
    ``Topology`` all yield their member names; ``None`` / unknown shapes
    yield nothing.
    """
    if annotation is None:
        return
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String forward reference: re-parse the quoted source.
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        yield from _annotation_names(annotation.left)
        yield from _annotation_names(annotation.right)
        return
    if isinstance(annotation, ast.Subscript):
        # Optional[X] / list[X]: look inside — over-approximating a
        # container annotation as its element type only ever *adds*
        # candidate receivers, which is the safe direction here.
        yield from _annotation_names(annotation.slice)
        if isinstance(annotation.slice, ast.Tuple):
            for element in annotation.slice.elts:
                yield from _annotation_names(element)
        return
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        parts: list[str] = []
        node: ast.expr = annotation
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            yield ".".join(reversed(parts))


class CallGraph:
    """Project-wide unit index + reference edges + type-lite environment."""

    def __init__(self, project: Project, config: AnalysisConfig) -> None:
        self.project = project
        self.config = config
        #: dotted module name -> SourceFile
        self.modules: dict[str, SourceFile] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: (module, local name) -> unit/class id for module-level defs
        self._module_defs: dict[tuple[str, str], str] = {}
        #: per-module import table (local name -> dotted origin)
        self._aliases: dict[str, dict[str, str]] = {}
        #: unit id -> ids it calls or references by name
        self.references: dict[str, set[str]] = {}
        #: module -> project modules its imports execute
        self._imports: dict[str, set[str]] = {}
        #: (class_id, attr) / (func_id, local) -> set of class ids
        self.attr_types: dict[tuple[str, str], set[str]] = {}
        self.local_types: dict[tuple[str, str], set[str]] = {}
        self._index()
        self._infer_types()
        self._link()

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #

    def _index(self) -> None:
        src_root = self.config.src_root
        for source in self.project.under(self.config.src_prefix):
            module = module_name_for(source.relative, src_root)
            if module is None or source.tree is None:
                continue
            self.modules[module] = source
            self._aliases[module] = import_aliases(source.tree)
            self._index_body(module, source, source.tree.body, prefix="",
                             class_id=None)

    def _index_body(self, module: str, source: SourceFile,
                    body: list[ast.stmt], prefix: str,
                    class_id: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                info = FunctionInfo(
                    id=f"{module}:{qualname}", module=module,
                    qualname=qualname, node=node, source=source,
                    class_id=class_id, params=self._param_names(node))
                self.functions[info.id] = info
                if class_id is not None:
                    self.classes[class_id].methods[node.name] = info.id
                elif not prefix:
                    self._module_defs[(module, node.name)] = info.id
                # Nested defs reference-link to their parent via _link.
                self._index_body(module, source, node.body,
                                 prefix=f"{qualname}.", class_id=None)
            elif isinstance(node, ast.ClassDef) and class_id is None:
                qualname = f"{prefix}{node.name}"
                info = ClassInfo(id=f"{module}:{qualname}", name=node.name,
                                 module=module, node=node, source=source)
                self.classes[info.id] = info
                if not prefix:
                    self._module_defs[(module, node.name)] = info.id
                self._index_body(module, source, node.body,
                                 prefix=f"{qualname}.", class_id=info.id)

    @staticmethod
    def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return tuple(names)

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #

    def resolve_name(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name used in ``module`` to a unit/class id."""
        head, _, rest = dotted.partition(".")
        local = self._module_defs.get((module, head))
        if local is not None:
            if not rest:
                return local
            info = self.classes.get(local)
            if info is not None:
                return info.methods.get(rest)
            return None
        origin = self._aliases.get(module, {}).get(head)
        if origin is None:
            return None
        target = f"{origin}.{rest}" if rest else origin
        return self._resolve_dotted(target)

    def _resolve_dotted(self, dotted: str) -> str | None:
        """``repro.sim.events.EventQueue.schedule`` -> its unit id."""
        if dotted in self.modules:
            return dotted
        head, _, tail = dotted.rpartition(".")
        while head:
            if head in self.modules:
                unit = self._module_defs.get((head, tail.split(".")[0]))
                if unit is None:
                    return None
                rest = tail.split(".")[1:]
                if not rest:
                    return unit
                info = self.classes.get(unit)
                if info is not None and len(rest) == 1:
                    return info.methods.get(rest[0])
                return None
            tail = f"{head.rpartition('.')[2]}.{tail}"
            head = head.rpartition(".")[0]
        return None

    def class_id_for(self, path: str, class_name: str) -> str | None:
        """Unit id of a class addressed by (repo path, name) config pairs."""
        module = module_name_for(path, self.config.src_root)
        if module is None:
            return None
        unit = self._module_defs.get((module, class_name))
        return unit if unit in self.classes else None

    # ------------------------------------------------------------------ #
    # Type-lite inference
    # ------------------------------------------------------------------ #

    def _class_names_for_annotation(self, module: str,
                                    annotation: ast.expr | None) -> set[str]:
        found: set[str] = set()
        for name in _annotation_names(annotation):
            unit = self.resolve_name(module, name)
            if unit in self.classes:
                found.add(unit)
        return found

    def _infer_types(self) -> None:
        # Pass 1: annotations (parameters, attribute AnnAssigns, returns
        # need no iteration — they are declarative).
        for info in self.functions.values():
            args = info.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                classes = self._class_names_for_annotation(info.module,
                                                          arg.annotation)
                if classes:
                    self.local_types[(info.id, arg.arg)] = set(classes)
            if info.class_id is not None and info.params[:1] == ("self",):
                self.local_types[(info.id, "self")] = {info.class_id}
        for cls in self.classes.values():
            for node in cls.node.body:
                if isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    classes = self._class_names_for_annotation(
                        cls.module, node.annotation)
                    if classes:
                        self.attr_types.setdefault(
                            (cls.id, node.target.id), set()).update(classes)
        # Pass 2..n: assignment propagation to a (bounded) fixpoint.
        for _ in range(4):
            if not self._propagate_assignments():
                break

    def _propagate_assignments(self) -> bool:
        changed = False
        for info in self.functions.values():
            for node in ast.walk(info.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                classes = self.expr_types(value, info)
                if not classes:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        key = (info.id, target.id)
                        table = self.local_types
                    elif isinstance(target, ast.Attribute):
                        owners = self.expr_types(target.value, info)
                        for owner in owners:
                            akey = (owner, target.attr)
                            known = self.attr_types.setdefault(akey, set())
                            if not classes <= known:
                                known.update(classes)
                                changed = True
                        continue
                    else:
                        continue
                    known = table.setdefault(key, set())
                    if not classes <= known:
                        known.update(classes)
                        changed = True
        return changed

    def expr_types(self, expr: ast.expr, info: FunctionInfo) -> set[str]:
        """Project classes an expression may evaluate to (type-lite)."""
        if isinstance(expr, ast.Name):
            local = self.local_types.get((info.id, expr.id))
            # A bare class *name* is not an instance of the class; only
            # typed locals/params carry the methods the rules care about.
            return set(local) if local else set()
        if isinstance(expr, ast.Attribute):
            found: set[str] = set()
            for owner in self.expr_types(expr.value, info):
                found |= self.attr_types.get((owner, expr.attr), set())
            return found
        if isinstance(expr, ast.Call):
            callee = self.resolve_call(expr, info)
            if callee in self.classes:
                return {callee}
            func = self.functions.get(callee) if callee else None
            if func is not None:
                return self._class_names_for_annotation(func.module,
                                                        func.node.returns)
            return set()
        if isinstance(expr, ast.IfExp):
            return self.expr_types(expr.body, info) \
                | self.expr_types(expr.orelse, info)
        if isinstance(expr, ast.BoolOp):
            found = set()
            for value in expr.values:
                found |= self.expr_types(value, info)
            return found
        if isinstance(expr, (ast.Await, ast.NamedExpr)):
            inner = expr.value
            return self.expr_types(inner, info)
        return set()

    # ------------------------------------------------------------------ #
    # Reference edges + reachability
    # ------------------------------------------------------------------ #

    def resolve_call(self, call: ast.Call, info: FunctionInfo) -> str | None:
        """Unit/class id a call dispatches to, or None when unresolved."""
        func = call.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            parts: list[str] = []
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                dotted = ".".join([node.id] + list(reversed(parts)))
                unit = self.resolve_name(info.module, dotted)
                if unit is not None:
                    return unit
        # Method dispatch through the receiver's inferred types.
        if isinstance(func, ast.Attribute):
            for owner in self.expr_types(func.value, info):
                cls = self.classes.get(owner)
                if cls is not None and func.attr in cls.methods:
                    return cls.methods[func.attr]
        return None

    def _link(self) -> None:
        for module, source in self.modules.items():
            if source.tree is None:
                continue
            self._imports[module] = self._project_imports(module, source.tree)
            # Module top-level references (nested defs excluded — defining
            # a function does not run it, but decorators and calls do).
            holder = FunctionInfo(id=module, module=module, qualname="",
                                  node=None, source=source)  # type: ignore[arg-type]
            self.references[module] = self._collect_references(
                module, source.tree.body, holder)
        for info in self.functions.values():
            refs = self._collect_references(info.id, info.node.body, info)
            # A nested def is conservatively live with its parent (closures
            # are made to be handed somewhere).
            for node in info.node.body:
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        candidate = f"{info.module}:{info.qualname}.{sub.name}"
                        if candidate in self.functions:
                            refs.add(candidate)
            self.references[info.id] = refs
        for cls in self.classes.values():
            # Referencing/instantiating a class makes its body run and its
            # methods callable: model the class unit as referencing both.
            self.references[cls.id] = set(cls.methods.values())

    def _project_imports(self, module: str, tree: ast.Module) -> set[str]:
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.modules:
                        imported.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level:
                    # Relative import (the tree uses none; best-effort so
                    # fixture trees that do are not silently unlinked).
                    base = ".".join(module.split(".")[:-node.level] or [])
                    target = f"{base}.{target}".strip(".")
                if target in self.modules:
                    imported.add(target)
                for alias in node.names:
                    candidate = f"{target}.{alias.name}" if target else alias.name
                    if candidate in self.modules:
                        imported.add(candidate)
        return imported

    def _collect_references(self, unit: str, roots: list[ast.stmt],
                            info: FunctionInfo) -> set[str]:
        refs: set[str] = set()
        for sub in walk_unit(roots):
            if isinstance(sub, ast.Call):
                target = self.resolve_call(sub, info)
                if target is not None:
                    refs.add(target)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                target = self._module_defs.get((info.module, sub.id))
                if target is None:
                    origin = self._aliases.get(info.module, {}).get(sub.id)
                    target = self._resolve_dotted(origin) if origin else None
                if target is not None:
                    refs.add(target)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                # `self.handler` / `obj.method` passed as a callback.
                if info.node is not None:
                    for owner in self.expr_types(sub.value, info):
                        cls = self.classes.get(owner)
                        if cls is not None and sub.attr in cls.methods:
                            refs.add(cls.methods[sub.attr])
        return refs

    def reachable_from(self, entry_modules: tuple[str, ...]) -> set[str]:
        """Unit ids (modules, functions, classes) live from the entries.

        A module entry seeds its top-level plus every public top-level
        def; reachable module top-levels pull in the modules they import
        (imports execute); reachable code pulls in everything it calls or
        names; a referenced class makes its methods callable.  Decorated
        top-level functions of reachable modules count as live — a
        decorator is registration, and registered callables are invoked
        from outside the graph.
        """
        seeds: list[str] = []
        for module in entry_modules:
            if module not in self.modules:
                continue
            seeds.append(module)
            for (mod, name), unit in self._module_defs.items():
                if mod == module and not name.startswith("_"):
                    seeds.append(unit)
        reachable: set[str] = set()
        work = list(seeds)
        while work:
            unit = work.pop()
            if unit in reachable:
                continue
            reachable.add(unit)
            work.extend(self.references.get(unit, ()))
            if unit in self.modules:  # module top-level: imports execute
                for imported in self._imports.get(unit, ()):
                    work.append(imported)
                for (mod, name), defined in self._module_defs.items():
                    if mod != unit:
                        continue
                    func = self.functions.get(defined)
                    if func is not None and func.node.decorator_list:
                        work.append(defined)
                    cls = self.classes.get(defined)
                    if cls is not None and cls.node.decorator_list:
                        work.append(defined)
        return reachable


def get_callgraph(project: Project, config: AnalysisConfig) -> CallGraph:
    """One memoised :class:`CallGraph` per project snapshot."""
    key = (config.src_prefix, config.src_root)
    cache = getattr(project, "_callgraph_cache", None)
    if cache is None:
        cache = {}
        project._callgraph_cache = cache  # type: ignore[attr-defined]
    graph = cache.get(key)
    if graph is None:
        graph = CallGraph(project, config)
        cache[key] = graph
    return graph
