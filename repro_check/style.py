"""Style rules: the stdlib lint subset.

``make lint`` selects exactly these; with no ruff in a hermetic container
they are the lint that runs (CI adds ``ruff check`` as its own step), on the
same framework, CLI and fixture tests as the invariant rules:

* **SYN001** — the file parses at all;
* **E501** — lines longer than the configured limit;
* **W191** — tabs in indentation;
* **W291/W293** — trailing whitespace on code / blank lines;
* **F401** — imports never used in the module.  ``__init__.py`` re-export
  hubs, ``import x as x`` / ``from m import x as x`` explicit re-exports,
  names referenced from string constants (``__all__``, doctests) and
  imports guarded by ``if TYPE_CHECKING:`` are all exempt.

Unlike the invariant rules these cover every configured target directory,
not just ``src/repro``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    Rule,
    SourceFile,
    register,
)


@register
class SyntaxValidity(Rule):
    """SYN001: every target file must parse."""

    name = "SYN001"
    description = "every python file under the targets parses"

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for source in project.files:
            error = source.syntax_error
            if error is not None:
                yield Finding(self.name, source.relative, error.lineno or 1,
                              f"syntax error: {error.msg}")


class _LineRule(Rule):
    """Shared shape for the per-line textual rules."""

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for source in project.files:
            for number, line in enumerate(source.lines, start=1):
                yield from self.check_line(source, number, line, config)

    def check_line(self, source: SourceFile, number: int, line: str,
                   config: AnalysisConfig) -> Iterator[Finding]:
        raise NotImplementedError


@register
class LineLength(_LineRule):
    """E501: configured maximum line length."""

    name = "E501"
    description = "line length stays within the configured limit"

    def check_line(self, source: SourceFile, number: int, line: str,
                   config: AnalysisConfig) -> Iterator[Finding]:
        if len(line) > config.line_length:
            yield Finding(self.name, source.relative, number,
                          f"line too long ({len(line)} > {config.line_length})")


@register
class TabIndentation(_LineRule):
    """W191: no tabs in indentation."""

    name = "W191"
    description = "indentation uses spaces, never tabs"

    def check_line(self, source: SourceFile, number: int, line: str,
                   config: AnalysisConfig) -> Iterator[Finding]:
        if line.lstrip(" ").startswith("\t"):
            yield Finding(self.name, source.relative, number,
                          "tab in indentation")


@register
class TrailingWhitespace(_LineRule):
    """W291: no trailing whitespace on code lines."""

    name = "W291"
    description = "no trailing whitespace after code"

    def check_line(self, source: SourceFile, number: int, line: str,
                   config: AnalysisConfig) -> Iterator[Finding]:
        if line != line.rstrip() and line.strip():
            yield Finding(self.name, source.relative, number,
                          "trailing whitespace")


@register
class BlankLineWhitespace(_LineRule):
    """W293: blank lines carry no whitespace."""

    name = "W293"
    description = "blank lines contain no whitespace"

    def check_line(self, source: SourceFile, number: int, line: str,
                   config: AnalysisConfig) -> Iterator[Finding]:
        if line != line.rstrip() and not line.strip():
            yield Finding(self.name, source.relative, number,
                          "whitespace on blank line")


def _is_type_checking_test(test: ast.expr) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


class _ImportUsage(ast.NodeVisitor):
    """Imported top-level names (with guard info) and every name used."""

    def __init__(self) -> None:
        self.imported: dict[str, int] = {}
        self.used: set[str] = set()
        self._type_checking_depth = 0

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self.visit(node.test)
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._type_checking_depth:
            return  # type-only imports exist solely for annotations
        for alias in node.names:
            if alias.asname == alias.name.split(".")[0]:
                continue  # `import x as x`: an explicit re-export idiom
            name = alias.asname or alias.name.split(".")[0]
            self.imported.setdefault(name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._type_checking_depth:
            return
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name:
                continue
            name = alias.asname or alias.name
            self.imported.setdefault(name, node.lineno)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)


def _string_referenced(name: str, tree: ast.Module) -> bool:
    """True when ``name`` appears as a whole word in a string constant.

    Covers ``__all__`` entries and docstring/doctest references without the
    false negatives raw substring containment would produce (an unused
    ``np`` must not be excused by the word "input" appearing somewhere).
    """
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if pattern.search(node.value):
                return True
    return False


@register
class UnusedImports(Rule):
    """F401: imports must be used (modulo the documented exemptions)."""

    name = "F401"
    description = ("no unused imports; __init__.py, `import x as x`, "
                   "__all__/string references and TYPE_CHECKING guards exempt")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        for source in project.files:
            if source.path.name == "__init__.py" or source.tree is None:
                continue
            usage = _ImportUsage()
            usage.visit(source.tree)
            for name, lineno in sorted(usage.imported.items(),
                                       key=lambda kv: kv[1]):
                if name in usage.used or name == "annotations":
                    continue
                if _string_referenced(name, source.tree):
                    continue  # __all__ entries / doctest references
                yield Finding(self.name, source.relative, lineno,
                              f"'{name}' imported but unused")
