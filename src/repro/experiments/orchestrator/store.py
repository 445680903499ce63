"""Content-addressed result store: one cell result per ``(spec, seed, code)``.

The PR 1 cache keyed cells by a hash of the *scenario JSON* alone, which
has two aliasing holes the sweep orchestrator closes:

* a new :class:`~repro.experiments.runner.RunConfig` knob that a scenario
  does not mention never appears in the spec JSON, so a sweep run after
  the knob lands could be served results computed before it existed.  The
  store therefore hashes the **fully resolved** config — every
  ``fields(RunConfig)`` member, defaults included — so introducing (or
  re-defaulting) a knob changes every key it could influence
  (``tests/scenarios/test_spec.py`` pins this per field).
* results are only as durable as the code that produced them.  Each key
  carries a **code version** — a content hash of every ``*.py`` file under
  ``src/repro`` — so a kernel change honestly invalidates the cache
  instead of replaying stale physics.

Layout under the results root (``results/`` by default)::

    results/store/<scenario>/cell-<spec16>-s<seed>-c<code8>.json
    results/store/_sweeps/<sweep_id>.jsonl      (the resume journals)

Entries are written atomically (temp file + rename), so a sweep killed
mid-write can never leave a truncated entry that later replays as data —
unreadable entries are recomputed.  Nothing outside ``results/store/`` is
ever read back.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.experiments.runner import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle: scenarios uses workloads
    from repro.scenarios.execute import CellResult
    from repro.scenarios.spec import ScenarioCell

#: Subdirectory of the results root holding the content-addressed store.
STORE_DIRNAME = "store"
#: Subdirectory of the store holding sweep journals (skipped by loaders).
SWEEPS_DIRNAME = "_sweeps"

_HEX_SPEC = 16  #: hex digits of the spec hash kept in keys
_HEX_CODE = 8   #: hex digits of the code version kept in keys


def canonical_json(payload: Any) -> str:
    """The canonical serialisation every hash in the store is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    """A JSON-stable view of one config value (``inf`` has no JSON literal)."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def config_fingerprint(config: RunConfig) -> dict[str, Any]:
    """Every resolved ``RunConfig`` field, by name — the spec-hash payload.

    Enumerating ``fields(RunConfig)`` (rather than listing knobs by hand)
    is what guarantees a field added tomorrow feeds the hash today
    (``tests/scenarios/test_spec.py`` changes each field and watches the
    spec hash move).
    """
    fingerprint: dict[str, Any] = {}
    for config_field in fields(RunConfig):
        fingerprint[config_field.name] = _jsonable(getattr(config, config_field.name))
    return fingerprint


def spec_hash(cell: ScenarioCell) -> str:
    """Content hash of one fully-resolved cell (scenario + axes + config).

    Covers the scenario JSON *and* the resolved config so both explicit
    overrides and defaulted knobs are part of the identity; the seed rides
    separately in :class:`CellKey` (it is also inside the scenario dict,
    but keeping it visible in the filename makes the store browsable).
    """
    payload = {
        "scenario": cell.scenario.to_dict(),
        "axes": cell.axes,
        "run_config": config_fingerprint(cell.scenario.run_config(cell.seed)),
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:_HEX_SPEC]


_CODE_VERSION: str | None = None


def code_version(src_root: Path | None = None) -> str:
    """Content hash of every ``*.py`` under ``src/repro`` (cached per process).

    Pass ``src_root`` to fingerprint another tree (tests); only the default
    (the imported package's own tree) is cached.
    """
    global _CODE_VERSION
    if src_root is None:
        if _CODE_VERSION is None:
            package_root = Path(__file__).resolve().parents[2]  # src/repro
            _CODE_VERSION = _fingerprint_tree(package_root)
        return _CODE_VERSION
    return _fingerprint_tree(Path(src_root))


def _fingerprint_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:_HEX_CODE]


@dataclass(frozen=True)
class CellKey:
    """The full store identity of one cell result."""

    scenario: str
    spec_hash: str
    seed: int
    code_version: str

    def filename(self) -> str:
        return f"cell-{self.spec_hash}-s{self.seed}-c{self.code_version}.json"

    def render(self) -> str:
        """The compact form journals and reports use."""
        return f"{self.scenario}/{self.spec_hash}-s{self.seed}-c{self.code_version}"


class ResultStore:
    """The content-addressed cell-result store under one results root."""

    def __init__(self, results_dir: str | Path,
                 code: str | None = None) -> None:
        self.results_dir = Path(results_dir)
        self.root = self.results_dir / STORE_DIRNAME
        self.code = code if code is not None else code_version()

    # -- keys and paths ---------------------------------------------------- #

    def key_for(self, cell: ScenarioCell) -> CellKey:
        return CellKey(scenario=cell.scenario.name, spec_hash=spec_hash(cell),
                       seed=cell.seed, code_version=self.code)

    def path_for(self, key: CellKey) -> Path:
        return self.root / key.scenario / key.filename()

    # -- entry IO ---------------------------------------------------------- #

    def load(self, key: CellKey) -> "CellResult | None":
        """The stored result for ``key``, or ``None`` (missing / unreadable)."""
        from repro.scenarios.execute import CellResult

        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return CellResult.from_dict(data["result"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None  # corrupt entry: recompute and overwrite

    def save(self, key: CellKey, cell: ScenarioCell, result: CellResult) -> Path:
        """Write one entry atomically (temp + rename survives any kill)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": {"scenario": key.scenario, "spec_hash": key.spec_hash,
                    "seed": key.seed, "code_version": key.code_version},
            "cell": cell.to_dict(),
            "result": result.to_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        scratch = path.with_name(path.name + f".tmp{os.getpid()}")
        scratch.write_text(text, encoding="utf-8")
        os.replace(scratch, path)
        return path

    def sweeps_dir(self) -> Path:
        return self.root / SWEEPS_DIRNAME

    # -- loaders ----------------------------------------------------------- #

    def iter_results(self, scenarios: list[str] | None = None
                     ) -> dict[str, list["CellResult"]]:
        """All readable store entries grouped by scenario name (sorted)."""
        from repro.scenarios.execute import CellResult  # noqa: F401 - via load

        grouped: dict[str, list[CellResult]] = {}
        if not self.root.is_dir():
            return grouped
        for directory in sorted(entry for entry in self.root.iterdir()
                                if entry.is_dir() and entry.name != SWEEPS_DIRNAME):
            if scenarios and directory.name not in scenarios:
                continue
            cells = []
            for path in sorted(directory.glob("cell-*.json")):
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    cells.append(CellResult.from_dict(data["result"]))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue  # unreadable entries are skipped, never trusted
            if cells:
                grouped[directory.name] = cells
        return grouped
