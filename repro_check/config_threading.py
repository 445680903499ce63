"""CFG101: every ``RunConfig`` field is read by code that actually runs.

The recurring bug class of PRs 2-6: a new knob lands on ``RunConfig``, the
scenario JSON accepts it, the CLI sweeps it — and nothing downstream ever
reads it, so every sweep cell silently runs the default.  Dynamically this
is invisible (no test fails; the axis just produces flat lines).

Statically it is crisp: a threaded field is *consumed* — its name appears
as an attribute read (``config.<field>`` / ``self.<field>``) in code
reachable from the entry points, outside the field's own declaration and
outside ``__post_init__`` (validation alone is not threading).  Reads
inside the config class's other methods count: helpers like
``control_view()`` are the threading for their fields.

That ``run.*`` overrides, the JSON round trip and the result store's cache
key cover every field is not checked here: ``tests/scenarios/test_spec.py``
states it per field, on the running code.

Tested live by injecting a fake field into a copy of the tree and
asserting the analyzer rejects it (``tests/analysis/test_config_threading``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro_check.callgraph import get_callgraph, walk_unit
from repro_check.framework import (
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
class InterproceduralConfigThreading(Rule):
    """CFG101: config fields must be read by code that actually *runs*.

    An attribute read of the field name somewhere in the tree is not
    enough — that is how the PR 5 node-0 position bug survived review: the
    field *was* read, but only by a helper whose last call site had been
    dropped in a refactor, so every run silently used the default.  A
    field counts as threaded only when some read of it sits in code
    reachable from the configured entry modules
    (:attr:`AnalysisConfig.entry_modules` — the CLI and the figure
    harnesses), where "reachable" follows calls, by-name callback
    references, imports, and class instantiation, and seeds every
    decorated/public definition of a reachable module so registration-style
    indirection never causes a false alarm.
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
            yield Finding(self.name, source.relative, 1,
                          f"config class `{class_name}` not found")
            return
        fields = _dataclass_fields(config_cls)
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
