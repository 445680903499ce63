"""The rule framework behind ``repro-check``.

Three pieces, deliberately small:

* :class:`Project` — the parsed source tree.  Every ``*.py`` file under the
  configured targets is loaded once into a :class:`SourceFile` (text,
  lines, lazily-parsed AST), so every rule works from the same snapshot
  and no rule re-reads the disk.
* :class:`Rule` — one named invariant.  A rule sees the whole project (the
  interesting invariants are cross-file) and yields :class:`Finding`
  objects; the framework sorts them for stable output.
* the registry — rules self-register at import time via :func:`register`,
  so the CLI (``make analyze``, ``make lint``) and the tests all address
  rules by name through one table.

Where a rule looks (which files, which package subtree) is a field of
:class:`AnalysisConfig` rather than hard-coded in the rule, which is what
lets the fixture tests point a rule at a known-bad synthetic tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class SourceFile:
    """One parsed source file: its text, lines and lazily-parsed AST."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.relative = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self._tree: ast.Module | None = None
        self._syntax_error: SyntaxError | None = None

    @property
    def tree(self) -> ast.Module | None:
        """The parsed AST, or ``None`` when the file has a syntax error."""
        if self._tree is None and self._syntax_error is None:
            try:
                self._tree = ast.parse(self.text, filename=str(self.path))
            except SyntaxError as error:
                self._syntax_error = error
        return self._tree

    @property
    def syntax_error(self) -> SyntaxError | None:
        self.tree  # noqa: B018 - force the parse attempt
        return self._syntax_error


class Project:
    """The analyzed source tree: every python file under the targets."""

    def __init__(self, root: Path, targets: Iterable[str]) -> None:
        self.root = Path(root)
        self.files: list[SourceFile] = []
        self._relatives: set[str] = set()
        for target in targets:
            path = self.root / target
            if path.is_file():
                self._add(path)
            elif path.is_dir():
                for candidate in sorted(path.rglob("*.py")):
                    self._add(candidate)

    def _add(self, path: Path) -> None:
        source = SourceFile(self.root, path)
        if source.relative not in self._relatives:
            self._relatives.add(source.relative)
            self.files.append(source)

    def under(self, prefix: str) -> Iterator[SourceFile]:
        """All files whose repo-relative path starts with ``prefix``."""
        prefix = prefix.rstrip("/") + "/"
        for source in self.files:
            if source.relative.startswith(prefix) or source.relative == prefix[:-1]:
                yield source


@dataclass
class AnalysisConfig:
    """Where each rule looks; the defaults describe *this* repository."""

    #: Directories/files the analyzer loads; the style rules cover all of
    #: them (mirrors ``tool.ruff.include``).
    style_targets: tuple[str, ...] = ("src", "repro_check", "tests", "benchmarks",
                                      "scripts", "examples", "setup.py")
    #: Maximum source line length (mirrors ``tool.ruff.line-length``).
    line_length: int = 100
    #: The package subtree the determinism rule polices.
    src_prefix: str = "src/repro"


class Rule:
    """Base class: one named, registered invariant."""

    name: str = ""
    description: str = ""

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by its ``name``) to the registry."""
    instance = rule_class()
    if not instance.name:
        raise ValueError(f"rule {rule_class.__name__} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return rule_class


def all_rules() -> dict[str, Rule]:
    """The full rule registry, keyed by rule name."""
    return dict(_REGISTRY)


def get_rule(name: str) -> Rule:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rule {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def run_rules(root: Path | str, config: AnalysisConfig | None = None,
              select: Iterable[str] | None = None) -> list[Finding]:
    """Run the selected rules (default: all) over ``root``; sorted findings."""
    config = config if config is not None else AnalysisConfig()
    project = Project(Path(root), config.style_targets)
    names = list(select) if select is not None else sorted(_REGISTRY)
    rules = [get_rule(name) for name in names]  # unknown names error out first
    findings = [finding for rule in rules
                for finding in rule.check(project, config)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def dotted_name(node: ast.AST) -> str | None:
    """``ast.Name``/``ast.Attribute`` chain -> dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every top-level-ish import.

    Walks the whole tree (imports inside functions count too) and maps
    ``import time`` -> ``{"time": "time"}``, ``import numpy as np`` ->
    ``{"np": "numpy"}``, ``from time import perf_counter as pc`` ->
    ``{"pc": "time.perf_counter"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_name(func: ast.AST, aliases: dict[str, str]) -> str | None:
    """The canonical dotted name a call target resolves to, or ``None``.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; a bare ``perf_counter`` imported from
    ``time`` resolves to ``time.perf_counter``.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin
