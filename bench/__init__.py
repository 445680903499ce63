"""The repository's benchmark: five workloads, three gated numbers each.

``python3 -m bench`` (from the checkout root) runs everything and prints
every metric by name with its unit; ``BENCHMARK.json`` at the root names the
metrics, units, bounds and the per-workload command.  See ``README.md`` in
this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"


def use_checkout_source() -> None:
    """Measure this checkout's ``src/repro`` and no other; exit if there is none."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: nothing to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
