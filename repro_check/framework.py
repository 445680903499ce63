"""The rule framework behind ``repro-check``.

Three pieces, deliberately small:

* :class:`Project` — the parsed source tree.  Every ``*.py`` file under the
  configured targets is loaded once into a :class:`SourceFile` (text,
  lines, lazily-parsed AST, per-line suppressions), so every rule works
  from the same snapshot and no rule re-reads the disk.
* :class:`Rule` — one named invariant.  A rule sees the whole project (the
  interesting invariants are cross-file) and yields :class:`Finding`
  objects; the framework filters findings through ``# repro: allow-<RULE>``
  suppression comments and sorts them for stable output.
* the registry — rules self-register at import time via :func:`register`,
  so the CLI (``make analyze``, ``make lint``) and the tests all address
  rules by name through one table.

Where a rule looks (which files, which package subtree) is a field of
:class:`AnalysisConfig` rather than hard-coded in the rule, which is what
lets the fixture tests point a rule at a known-bad synthetic tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: A suppression directive: a *comment* whose text begins with
#: ``repro: allow-RULE`` (optionally followed by a reason).  It suppresses
#: matching findings on its line, or on the next code line when the comment
#: stands alone; an extra ``file`` token right after the rule name widens
#: the scope to the whole module.  Only real comment tokens count — the
#: same text inside a string or docstring merely *mentions* the syntax.
_SUPPRESS = re.compile(r"#\s*repro:\s*allow-([A-Za-z0-9]+)(\s+file\b)?")


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
    """One parsed source file plus its suppression map."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.relative = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self._tree: ast.Module | None = None
        self._syntax_error: SyntaxError | None = None
        self._suppressions: dict[int, set[str]] | None = None
        #: (rule, covered code line) -> comment lines granting the cover
        self._line_cover: dict[tuple[str, int], set[int]] = {}
        #: rule -> comment lines granting module-wide cover
        self._file_cover: dict[str, set[int]] = {}
        #: every ``allow-RULE`` occurrence: (comment line, rule, file scope)
        self._sites: list[tuple[int, str, bool]] = []

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

    def _comment_tokens(self) -> list[tuple[int, str]]:
        """(line, text) for every real comment token in the file.

        Tokenizing (rather than regex-scanning raw lines) is what keeps a
        docstring or string literal that *mentions* the suppression syntax
        from acting as — or being audited as — a suppression.  Files the
        tokenizer rejects fall back to a crude first-``#`` line scan so
        suppressions still work alongside their SYN001 finding.
        """
        try:
            return [(token.start[0], token.string)
                    for token in tokenize.generate_tokens(
                        io.StringIO(self.text).readline)
                    if token.type == tokenize.COMMENT]
        except (tokenize.TokenError, IndentationError, SyntaxError,
                ValueError):
            return [(number, line[line.index("#"):])
                    for number, line in enumerate(self.lines, start=1)
                    if "#" in line]

    def suppressions(self) -> dict[int, set[str]]:
        """Map line number -> rule names suppressed on that line.

        A trailing ``# repro: allow-RULE`` comment covers its own line; a
        comment-only line covers the next non-blank, non-comment line too,
        so long suppression reasons need not fight the line-length rule.
        ``# repro: allow-RULE file`` covers the whole module (reported
        here under the comment's own line; :meth:`is_suppressed` applies
        it everywhere).  The directive must open its comment: trailing
        prose, doc references and quoted examples never suppress.
        """
        if self._suppressions is None:
            directives: dict[int, list[tuple[str, str]]] = {}
            for number, comment in self._comment_tokens():
                if _SUPPRESS.match(comment):
                    directives.setdefault(number, []).extend(
                        _SUPPRESS.findall(comment))
            table: dict[int, set[str]] = {}
            # (rule, site line) pairs waiting for the next code line.
            pending: set[tuple[str, int]] = set()
            for number, line in enumerate(self.lines, start=1):
                sited: set[tuple[str, int]] = set()
                for rule_name, file_token in directives.get(number, ()):
                    rule_name = rule_name.upper()
                    file_scope = bool(file_token)
                    self._sites.append((number, rule_name, file_scope))
                    if file_scope:
                        self._file_cover.setdefault(rule_name, set()).add(number)
                    else:
                        sited.add((rule_name, number))
                stripped = line.strip()
                if sited:
                    for rule_name, site in sited:
                        table.setdefault(number, set()).add(rule_name)
                        self._line_cover.setdefault(
                            (rule_name, number), set()).add(site)
                    if stripped.startswith("#"):
                        pending |= sited  # standalone comment: next code line
                        continue
                if not stripped or stripped.startswith("#"):
                    continue
                if pending:
                    for rule_name, site in pending:
                        table.setdefault(number, set()).add(rule_name)
                        self._line_cover.setdefault(
                            (rule_name, number), set()).add(site)
                    pending = set()
            self._suppressions = table
        return self._suppressions

    def is_suppressed(self, rule: str, line: int) -> bool:
        self.suppressions()
        return rule in self.suppressions().get(line, ()) \
            or rule in self._file_cover

    def suppression_sites(self) -> list[tuple[int, str, bool]]:
        """Every ``allow-RULE`` occurrence: (line, rule, file scope)."""
        self.suppressions()
        return list(self._sites)

    def covering_sites(self, rule: str, line: int) -> set[int]:
        """Comment lines whose suppression covers (rule, line)."""
        self.suppressions()
        return self._line_cover.get((rule, line), set()) \
            | self._file_cover.get(rule, set())


class Project:
    """The analyzed source tree: every python file under the targets."""

    def __init__(self, root: Path, targets: Iterable[str]) -> None:
        self.root = Path(root)
        self.files: list[SourceFile] = []
        self._by_relative: dict[str, SourceFile] = {}
        for target in targets:
            path = self.root / target
            if path.is_file():
                self._add(path)
            elif path.is_dir():
                for candidate in sorted(path.rglob("*.py")):
                    self._add(candidate)

    def _add(self, path: Path) -> None:
        source = SourceFile(self.root, path)
        if source.relative not in self._by_relative:
            self._by_relative[source.relative] = source
            self.files.append(source)

    def get(self, relative: str) -> SourceFile | None:
        """Look up one file by repo-relative posix path."""
        return self._by_relative.get(relative)

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


@register
class UnusedSuppression(Rule):
    """SUP001: every ``# repro: allow-<RULE>`` must suppress a finding.

    A stale suppression documents a violation that no longer exists and
    swallows the next genuine finding that lands on its line.  Only
    :func:`run_rules` knows which suppressions absorbed a finding, so the
    audit runs there; this class puts the rule in the registry
    (``--list-rules``, ``--select``) and yields nothing of its own.
    """

    name = "SUP001"
    description = ("every `# repro: allow-<RULE>` comment must suppress an "
                   "actual finding of a rule that ran (stale suppressions "
                   "hide the next real violation)")

    def check(self, project: Project, config: AnalysisConfig) -> Iterable[Finding]:
        return ()


def run_rules(root: Path | str, config: AnalysisConfig | None = None,
              select: Iterable[str] | None = None) -> list[Finding]:
    """Run the selected rules (default: all) over ``root``; sorted findings.

    Findings on lines carrying a matching ``# repro: allow-<RULE>``
    suppression are dropped here, so every caller — CLI and tests — sees
    identical suppression semantics.  When ``SUP001`` is in the selection
    the framework additionally audits the suppressions themselves: an
    ``allow-<RULE>`` comment that suppressed nothing is a finding (a
    suppression is only audited against rules that actually ran this
    invocation, so a partial ``--select`` never flags comments belonging to
    rules it skipped — except for ``--select SUP001`` alone, which runs
    every other rule silently to audit against the full set).
    """
    config = config if config is not None else AnalysisConfig()
    project = Project(Path(root), config.style_targets)
    names = list(select) if select is not None else sorted(_REGISTRY)
    for name in names:
        get_rule(name)  # unknown names error out before any rule runs
    sup001 = UnusedSuppression.name
    audit = sup001 in names
    executed = [name for name in names if name != sup001]
    report = True
    if audit and not executed:
        executed = sorted(set(_REGISTRY) - {sup001})
        report = False  # rules run only to credit suppressions
    findings: list[Finding] = []
    used: dict[str, set[tuple[int, str]]] = {}
    for name in executed:
        rule = get_rule(name)
        for finding in rule.check(project, config):
            source = project.get(finding.path)
            if source is not None:
                sites = source.covering_sites(finding.rule, finding.line)
                if sites:
                    used.setdefault(finding.path, set()).update(
                        (site, finding.rule) for site in sites)
                    continue
            if report:
                findings.append(finding)
    if audit:
        audited = set(executed)
        for source in project.files:
            used_here = used.get(source.relative, set())
            for line, rule_name, file_scope in source.suppression_sites():
                if rule_name not in audited or (line, rule_name) in used_here:
                    continue
                if source.is_suppressed(sup001, line):
                    continue
                scope = "anywhere in this file" if file_scope else "here"
                findings.append(Finding(
                    sup001, source.relative, line,
                    f"unused suppression: `# repro: allow-{rule_name}` "
                    f"matches no {rule_name} finding {scope} — remove it "
                    "(or fix the rule selection)"))
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
