"""CFG001: every ``RunConfig`` field must actually be threaded through.

The recurring bug class of PRs 2-6: a new knob lands on ``RunConfig``, the
scenario JSON accepts it, the CLI sweeps it — and nothing downstream ever
reads it, so every sweep cell silently runs the default.  Dynamically this
is invisible (no test fails; the axis just produces flat lines).

Statically it is crisp: a threaded field is *consumed* — its name appears
as an attribute read (``config.<field>`` / ``self.<field>``) somewhere in
``src/repro`` outside the field's own declaration and outside
``__post_init__`` (validation alone is not threading).  A field nobody
reads is a lint error.  Reads inside the config class's other methods
count: helpers like ``control_view()`` are the threading for their fields.

The rule also pins the structural plumbing that makes ``run.*`` overrides
and JSON round-tripping automatic for every field:

* the dotted-override function must validate ``run.*`` paths against
  ``fields(RunConfig)`` (so new fields are sweepable with zero edits), and
* ``ScenarioSpec.to_dict``/``from_dict`` must carry the ``"run"`` section
  (so new fields round-trip through JSON with zero edits).

Tested live by injecting a fake field into a copy of the tree and
asserting the analyzer rejects it (``tests/analysis/test_config_threading``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.callgraph import get_callgraph, walk_unit
from repro.analysis.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    register,
)


def _dataclass_fields(cls: ast.ClassDef) -> dict[str, int]:
    """Field name -> line for every dataclass field declared on ``cls``."""
    fields: dict[str, int] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if annotation.startswith(("ClassVar", "typing.ClassVar")):
                continue
            fields[node.target.id] = node.lineno
    return fields


@register
class ConfigThreading(Rule):
    """CFG001: un-consumed config fields and broken override plumbing."""

    name = "CFG001"
    description = ("every RunConfig field must be consumed in src/repro and "
                   "ride the ScenarioSpec run/override plumbing")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        config_path, class_name = config.config_class
        source = project.get(config_path)
        if source is None or source.tree is None:
            return
        config_cls: ast.ClassDef | None = None
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                config_cls = node
                break
        if config_cls is None:
            yield Finding(self.name, source.relative, 1,
                          f"config class `{class_name}` not found")
            return
        fields = _dataclass_fields(config_cls)
        if not fields:
            yield Finding(self.name, source.relative, config_cls.lineno,
                          f"`{class_name}` declares no dataclass fields — "
                          "is it still the experiment config?")
            return
        consumed = self._consumed_attributes(project, config, source.relative,
                                             config_cls)
        for field_name, line in sorted(fields.items(), key=lambda kv: kv[1]):
            if field_name not in consumed:
                yield Finding(
                    self.name, source.relative, line,
                    f"`{class_name}.{field_name}` is never read anywhere in "
                    f"{config.src_prefix}: the knob is declared (and "
                    "sweepable) but not threaded into any behaviour",
                )
        yield from self._check_spec_plumbing(project, config, class_name)

    # -- consumption ------------------------------------------------------- #

    def _consumed_attributes(self, project: Project, config: AnalysisConfig,
                             config_relative: str,
                             config_cls: ast.ClassDef) -> set[str]:
        """Attribute names read (Load context) anywhere in the source tree,

        excluding the config class's own field declarations and its
        ``__post_init__`` (validating a field is not consuming it).
        """
        excluded_lines: set[int] = set()
        for node in config_cls.body:
            if isinstance(node, ast.AnnAssign):
                excluded_lines.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                excluded_lines.update(range(node.lineno, node.end_lineno + 1))
        consumed: set[str] = set()
        for other in project.under(config.src_prefix):
            if other.tree is None:
                continue
            in_config_module = other.relative == config_relative
            for node in ast.walk(other.tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    if in_config_module and node.lineno in excluded_lines:
                        continue
                    consumed.add(node.attr)
        return consumed

    # -- spec plumbing ----------------------------------------------------- #

    def _check_spec_plumbing(self, project: Project, config: AnalysisConfig,
                             class_name: str) -> Iterator[Finding]:
        spec = project.get(config.spec_module)
        if spec is None or spec.tree is None:
            return  # fixture trees without a spec module skip this half
        validates_fields = False
        for node in ast.walk(spec.tree):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "fields" \
                    and any(getattr(arg, "id", None) == class_name
                            for arg in node.args):
                validates_fields = True
                break
        if not validates_fields:
            yield Finding(
                self.name, spec.relative, 1,
                f"the scenario spec no longer validates overrides against "
                f"`fields({class_name})` — new config fields would lose "
                "their dotted `run.*` path",
            )
        for method_name in ("to_dict", "from_dict"):
            if not self._method_mentions_run(spec.tree, method_name):
                yield Finding(
                    self.name, spec.relative, 1,
                    f"ScenarioSpec.{method_name} no longer carries the "
                    "\"run\" section — config fields would stop "
                    "round-tripping through JSON",
                )

    @staticmethod
    def _method_mentions_run(tree: ast.Module, method_name: str) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ScenarioSpec":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name == method_name:
                        for sub in ast.walk(item):
                            if isinstance(sub, ast.Constant) \
                                    and sub.value == "run":
                                return True
        return False


@register
class InterproceduralConfigThreading(Rule):
    """CFG101: config fields must be read by code that actually *runs*.

    CFG001 accepts any attribute read of a field name anywhere in the
    tree — which is exactly how the PR 5 node-0 position bug survived
    review: the field *was* read, but only by a helper whose last call
    site had been dropped in a refactor, so every run silently used the
    default.  CFG101 closes that hole with the call graph: a field counts
    as threaded only when some read of it sits in code reachable from the
    configured entry modules (:attr:`AnalysisConfig.entry_modules` — the
    CLI and the figure harnesses), where "reachable" follows calls,
    by-name callback references, imports, and class instantiation, and
    seeds every decorated/public definition of a reachable module so
    registration-style indirection never causes a false alarm.
    """

    name = "CFG101"
    description = ("every RunConfig field must be read by code reachable "
                   "from the CLI/figure entry points through the call "
                   "graph, not merely read somewhere (dead helpers do not "
                   "thread a knob)")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        config_path, class_name = config.config_class
        source = project.get(config_path)
        if source is None or source.tree is None:
            return
        config_cls: ast.ClassDef | None = None
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                config_cls = node
                break
        if config_cls is None:
            return  # CFG001 already reports the missing class
        fields = _dataclass_fields(config_cls)
        if not fields:
            return
        graph = get_callgraph(project, config)
        reachable = graph.reachable_from(config.entry_modules)
        if not any(module in reachable for module in config.entry_modules):
            return  # fixture trees without the entry modules skip this rule
        live = self._reachable_reads(graph, reachable, config_path, config_cls)
        for field_name, line in sorted(fields.items(), key=lambda kv: kv[1]):
            if field_name not in live:
                yield Finding(
                    self.name, source.relative, line,
                    f"`{class_name}.{field_name}` is never read by code "
                    "reachable from the entry points "
                    f"({', '.join(config.entry_modules)}): the only "
                    "consumers are dead code, so the knob cannot influence "
                    "a run",
                )

    def _reachable_reads(self, graph, reachable: set[str],
                         config_relative: str,
                         config_cls: ast.ClassDef) -> set[str]:
        """Attribute names read (Load) inside reachable code units."""
        excluded_lines: set[int] = set()
        for node in config_cls.body:
            if isinstance(node, ast.AnnAssign):
                excluded_lines.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                excluded_lines.update(range(node.lineno, node.end_lineno + 1))
        live: set[str] = set()

        def collect(roots, relative: str) -> None:
            for sub in walk_unit(roots):
                if isinstance(sub, ast.Attribute) \
                        and isinstance(sub.ctx, ast.Load):
                    if relative == config_relative \
                            and sub.lineno in excluded_lines:
                        continue
                    live.add(sub.attr)

        for unit in reachable:
            info = graph.functions.get(unit)
            if info is not None:
                collect(info.node.body, info.source.relative)
                continue
            module_source = graph.modules.get(unit)
            if module_source is not None and module_source.tree is not None:
                collect(module_source.tree.body, module_source.relative)
        return live
