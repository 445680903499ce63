"""PERF001: hot-path hygiene for the registered hottest modules.

The event engine, MAC, medium, GF kernels and the MORE agent together
execute millions of times per simulated transfer; PR 4 bought its 2x
end-to-end speedup largely by removing per-event allocation from exactly
these modules.  This rule keeps those wins from silently eroding:

* registered classes keep ``__slots__`` (a literal assignment or
  ``@dataclass(slots=True)``) — dict-backed instances on the per-frame
  path cost both allocation and attribute-lookup time;
* no ``lambda`` anywhere in a hot module — closures allocated per event
  were precisely the pattern PR 4 replaced with bound methods;
* no ``print`` — stdout in the event loop is both a performance cliff and
  a determinism hazard for tools that parse run output.
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
    register,
)


def _has_slots(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "__slots__":
            return True
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" \
                        and isinstance(keyword.value, ast.Constant) \
                        and keyword.value.value is True:
                    return True
    return False


@register
class HotPathHygiene(Rule):
    """PERF001: slots kept, no lambda allocation, no print in hot modules."""

    name = "PERF001"
    description = ("hot modules keep __slots__ on registered classes, no "
                   "lambdas, no print")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for relative, class_names in sorted(config.slots_classes.items()):
            source = project.get(relative)
            if source is None or source.tree is None:
                continue
            yield from self._check_slots(source, class_names)
        for relative in config.hot_modules:
            source = project.get(relative)
            if source is None or source.tree is None:
                continue
            yield from self._check_allocation(source)

    def _check_slots(self, source: SourceFile,
                     class_names: tuple[str, ...]) -> Iterator[Finding]:
        classes = {node.name: node for node in source.tree.body
                   if isinstance(node, ast.ClassDef)}
        for class_name in class_names:
            cls = classes.get(class_name)
            if cls is None:
                yield Finding(
                    self.name, source.relative, 1,
                    f"registered hot-path class `{class_name}` not found "
                    "(update the PERF001 registry if it moved)",
                )
            elif not _has_slots(cls):
                yield Finding(
                    self.name, source.relative, cls.lineno,
                    f"`{class_name}` lost its __slots__: instances on the "
                    "per-frame path must not carry a __dict__",
                )

    def _check_allocation(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Lambda):
                yield Finding(
                    self.name, source.relative, node.lineno,
                    "lambda in a hot module allocates a closure per call "
                    "site execution; use a bound method or module function",
                )
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "print":
                yield Finding(
                    self.name, source.relative, node.lineno,
                    "print() in a hot module: use the trace/stats collectors",
                )
