#!/usr/bin/env python3
"""docs-check: every ``repro.*`` dotted name and ``--preset`` in the docs must resolve.

Scans the given markdown files (default: README.md and docs/*.md) for
tokens like ``repro.metrics.etx.link_etx`` — and ``repro_check.*``, the
analyzer beside ``src/`` — imports the longest importable module prefix of
each and resolves the remainder with ``getattr``; every ``--preset name``
must name a registered scenario preset; and the claim ids in
``docs/paper-map.md``'s claim table must be exactly those of
``repro.experiments.figures.FIGURES``.  Exits non-zero listing every token
that no longer matches the code, so renames cannot silently rot the
documentation.

Run via ``make docs-check`` (needs ``PYTHONPATH=src``).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

TOKEN = re.compile(r"\brepro(?:_check)?(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: A concrete preset on a command line (``--preset NAME`` is a placeholder).
PRESET = re.compile(r"--preset[ =]([a-z][a-z0-9_]*)")
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


def main(argv: list[str]) -> int:
    from repro.experiments.figures import FIGURES
    from repro.scenarios import PRESETS

    claims = {claim.id for row in FIGURES.values() for claim in row.claims}
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
    print(f"docs-check: {len(checked)} distinct repro.* / repro_check.* references (and every "
          f"--preset name) resolve across {len(files)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
