#!/usr/bin/env python3
"""Rewrite the committed golden traces (``tests/golden_traces.json``).

    make golden          # PYTHONPATH=src python scripts/golden_traces.py

Runs the full grid of ``tests/golden.py`` — the same helper the
differential tests call — on this tree and replaces the file.  This is the
only way the file is rewritten: a diff in it is a behaviour change and
belongs in the PR that argues for it (tier-1, ``make test``, is the check).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden import GOLDEN_PATH, compute_golden  # noqa: E402


def main() -> int:
    entries = compute_golden()
    # One run per line: a changed run is a one-line diff.
    lines = [f"{json.dumps(name)}: {json.dumps(entries[name], sort_keys=True)}"
             for name in sorted(entries)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(entries)} golden traces to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
