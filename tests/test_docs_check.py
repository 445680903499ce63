"""``scripts/docs_check.py``: the docs name only presets and model kinds that exist.

A doc example naming a deleted preset or a deleted ``--channel`` /
``--mobility`` / ``--faults`` kind fails the check; a placeholder
(``--channel KIND``) and every registered kind pass, and the shipped docs
(the files ``make docs-check`` reads) resolve.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.scenarios.spec import MODEL_SECTIONS

_REPO = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location("docs_check", _REPO / "scripts" / "docs_check.py")
docs_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(docs_check)

#: What ``make docs-check`` reads.
SHIPPED_DOCS = ("README.md", "docs/paper-map.md", "docs/scenarios.md", "docs/performance.md",
                "docs/invariants.md", "docs/sweeps.md", "docs/faults.md")


def _check(tmp_path: Path, text: str) -> int:
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return docs_check.main([str(doc)])


@pytest.mark.parametrize("section", sorted(MODEL_SECTIONS))
def test_every_registered_kind_and_the_placeholder_resolve(section, tmp_path, capsys):
    kinds = MODEL_SECTIONS[section][1]
    text = "".join(f"python -m repro run --preset chain_smoke --{section} {kind}\n"
                   for kind in kinds) + f"`--{section} KIND`\n"
    assert _check(tmp_path, text) == 0, capsys.readouterr().err


@pytest.mark.parametrize("section,kind", [
    ("channel", "distance_fading"),
    ("channel", "trace"),
    ("mobility", "random_walk"),
    ("faults", "ack_blackout"),
    ("faults", "control_silence"),
])
def test_deleted_kind_fails(section, kind, tmp_path, capsys):
    assert _check(tmp_path, f"python -m repro run --{section}={kind}\n") == 1
    assert f"--{section} {kind}  (no such {section} kind)" in capsys.readouterr().err


def test_deleted_presets_fail(tmp_path, capsys):
    deleted = ("chain_batch_sweep", "multiflow_scale", "grid_5x5", "fading_grid",
               "trace_random_geometric")
    assert _check(tmp_path, "".join(f"--preset {name}\n" for name in deleted)) == 1
    err = capsys.readouterr().err
    for name in deleted:
        assert f"--preset {name}  (no such preset)" in err


def test_shipped_docs_resolve(capsys):
    assert docs_check.main([str(_REPO / name) for name in SHIPPED_DOCS]) == 0, \
        capsys.readouterr().err
