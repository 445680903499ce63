#!/usr/bin/env python3
"""docs-check: every ``repro.*`` name, ``--preset``, model kind and ``run.<field>`` must resolve.

Scans the given markdown files (default: README.md and docs/*.md) for
tokens like ``repro.metrics.etx.link_etx`` — and ``repro_check.*``, the
analyzer beside ``src/`` — imports the longest importable module prefix of
each and resolves the remainder with ``getattr``; every ``--preset name``
must name a registered scenario preset; every ``--channel`` /
``--mobility`` / ``--faults KIND`` must name a kind its section accepts
(``repro.scenarios.spec.MODEL_SECTIONS``); every ``run.<field>`` in a code
span or after ``--set`` / ``--axis`` must name a field of
``repro.experiments.runner.RunConfig``; every ``Class.attr`` in a code
span whose ``Class`` a ``repro`` package exports (its ``__all__``) must name
a class attribute, a dataclass field or an attribute the class assigns as
``self.attr``; and the claim ids in
``docs/paper-map.md``'s claim table must be exactly those of
``repro.experiments.figures.FIGURES``.  Exits non-zero listing every token
that no longer matches the code, so renames cannot silently rot the
documentation.

Run via ``make docs-check`` (needs ``PYTHONPATH=src``).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

TOKEN = re.compile(r"\brepro(?:_check)?(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: A concrete preset on a command line (``--preset NAME`` is a placeholder).
PRESET = re.compile(r"--preset[ =]([a-z][a-z0-9_]*)")
#: A concrete model kind on a command line (``--channel KIND`` is a placeholder).
MODEL_KIND = re.compile(r"--(channel|mobility|faults)[ =]([a-z][a-z0-9_]*)")
#: A ``RunConfig`` field as the docs name one: ``run.<field>`` inside a code
#: span, or after ``--set`` / ``--axis`` on a command line.
CODE_SPAN = re.compile(r"`[^`\n]+`")
RUN_FIELD = re.compile(r"(?<![\w.])run\.([A-Za-z_][A-Za-z0-9_]*)")
RUN_OPTION = re.compile(r"--(?:set|axis)[ =]['\"]?run\.([A-Za-z_][A-Za-z0-9_]*)")
#: ``Class.attr`` as a code span names one, ``Class`` capitalised.
CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
#: A claim id as the claim table writes it, and the file that holds the table.
CLAIM = re.compile(r"`(fig_\d+_\d+\.[a-z0-9_]+)`")
CLAIMS_FILE = "paper-map.md"

DEFAULT_FILES = ["README.md", "docs/paper-map.md", "docs/scenarios.md"]

# repro_check is not installed and not under src/: it resolves from the
# repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def resolve(token: str) -> None:
    """Import/getattr ``token``; raises on any failure."""
    parts = token.split(".")
    last_error: Exception | None = None
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError as error:
            last_error = error
            continue
        for attribute in parts[cut:]:
            obj = getattr(obj, attribute)  # AttributeError propagates
        return
    raise last_error if last_error else ImportError(token)


def exported_classes() -> dict[str, type]:
    """Every class in the ``__all__`` of a ``repro`` package, by name."""
    import repro

    classes: dict[str, type] = {}
    packages = [repro] + [importlib.import_module(info.name) for info in
                          pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
    for package in packages:
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name)
            if isinstance(value, type):
                classes[name] = value
    return classes


def has_attribute(cls: type, name: str) -> bool:
    """``name`` is a class attribute, a dataclass field or a ``self.name`` assignment."""
    if hasattr(cls, name):
        return True
    if is_dataclass(cls) and name in {field.name for field in fields(cls)}:
        return True
    assigned = re.compile(rf"\bself\.{name}\s*(?::[^=\n]+)?=(?!=)")
    return any(assigned.search(inspect.getsource(base)) for base in cls.__mro__
               if base.__module__.startswith("repro."))


def main(argv: list[str]) -> int:
    from repro.experiments.figures import FIGURES
    from repro.experiments.runner import RunConfig
    from repro.scenarios import PRESETS
    from repro.scenarios.spec import MODEL_SECTIONS

    claims = {claim.id for row in FIGURES.values() for claim in row.claims}
    run_fields = {field.name for field in fields(RunConfig)}
    classes = exported_classes()
    files = [Path(name) for name in (argv or DEFAULT_FILES)]
    failures: list[tuple[Path, str, str]] = []
    checked: set[str] = set()
    for path in files:
        if not path.is_file():
            failures.append((path, "<file>", "file not found"))
            continue
        text = path.read_text(encoding="utf-8")
        for name in sorted(set(PRESET.findall(text)) - set(PRESETS)):
            failures.append((path, f"--preset {name}", "no such preset"))
        for section, kind in sorted(set(MODEL_KIND.findall(text))):
            if kind not in MODEL_SECTIONS[section][1]:
                failures.append((path, f"--{section} {kind}", f"no such {section} kind"))
        named = set(RUN_OPTION.findall(text))
        qualified: set[tuple[str, str]] = set()
        for span in CODE_SPAN.findall(text):
            named.update(RUN_FIELD.findall(span))
            qualified.update(pair for pair in CLASS_ATTR.findall(span) if pair[0] in classes)
        for owner, name in sorted(qualified):
            if has_attribute(classes[owner], name):
                checked.add(f"{owner}.{name}")
            else:
                failures.append((path, f"{owner}.{name}", f"no attribute of {owner}"))
        for name in sorted(named - run_fields):
            failures.append((path, f"run.{name}", "no such RunConfig field"))
        if path.name == CLAIMS_FILE:
            documented = set(CLAIM.findall(text))
            for name in sorted(documented - claims):
                failures.append((path, name, "no such claim in FIGURES"))
            for name in sorted(claims - documented):
                failures.append((path, name, "claim of FIGURES missing from the table"))
        for token in sorted(set(TOKEN.findall(text))):
            try:
                resolve(token)
            except Exception as error:  # noqa: BLE001 - report every failure kind
                failures.append((path, token, f"{type(error).__name__}: {error}"))
            else:
                checked.add(token)
    if failures:
        print(f"docs-check: {len(failures)} unresolved reference(s):", file=sys.stderr)
        for path, token, reason in failures:
            print(f"  {path}: {token}  ({reason})", file=sys.stderr)
        return 1
    print(f"docs-check: {len(checked)} distinct repro.* / repro_check.* / Class.attr references "
          f"(and every --preset name, model kind and run.<field>) resolve across "
          f"{len(files)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
