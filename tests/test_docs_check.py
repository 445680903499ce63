"""``scripts/docs_check.py``: the docs name only presets, model kinds and fields that exist.

A doc example naming a deleted preset, a deleted ``--channel`` /
``--mobility`` / ``--faults`` kind, a deleted ``run.<field>`` or a deleted
method of an exported class (``Class.attr``) fails the check; a placeholder
(``--channel KIND``, ``run.<field>``), every registered kind and every
``RunConfig`` field pass, and the shipped docs (the files ``make
docs-check`` reads) resolve.
"""

from __future__ import annotations

import importlib.util
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.runner import RunConfig
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


@pytest.mark.parametrize("text", [
    "pair it with `run.monitor=true`\n",
    "python -m repro run --preset chain_smoke --set run.monitor=true\n",
    "python -m repro sweep --preset chain_smoke --axis run.monitor_interval=1,2\n",
], ids=["code_span", "set", "axis"])
def test_deleted_run_field_fails(text, tmp_path, capsys):
    assert _check(tmp_path, text) == 1
    assert "(no such RunConfig field)" in capsys.readouterr().err


def test_every_run_field_and_the_placeholder_resolve(tmp_path, capsys):
    text = "".join(f"`--set run.{field.name}=...` and `run.{field.name}`\n"
                   for field in fields(RunConfig))
    text += ("`run.<field>`, `run.*`, `sim.run.now`, a sentence ending in run.\n"
             "python -m repro run --preset chain_smoke\n")
    assert _check(tmp_path, text) == 0, capsys.readouterr().err


def test_class_qualified_name_of_a_missing_method_fails(tmp_path, capsys):
    assert _check(tmp_path, "edit a mesh with `Topology.set_delivery(0, 1, 0.5)`\n") == 1
    assert "Topology.set_delivery  (no attribute of Topology)" in capsys.readouterr().err


def test_class_qualified_names_resolve(tmp_path, capsys):
    """A method, a dataclass field without a default, an attribute assigned
    in ``__init__``; a class no package exports and prose are not checked."""
    text = ("`Topology.link_table()`, `SimConfig.max_duration`, "
            "`TopologySpec.kind`, `Simulator.words`, `Missing.anything`\n"
            "Topology.set_delivery outside a code span\n")
    assert _check(tmp_path, text) == 0, capsys.readouterr().err


def test_model_simplifications_name_real_files_and_deviating_claims():
    """Each row of ``docs/paper-map.md``'s *Model simplifications* table names
    a file that exists, and every claim it cites carries a *Deviation* note."""
    text = (_REPO / "docs" / "paper-map.md").read_text(encoding="utf-8")
    table = text.split("### Model simplifications", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in table.splitlines()
            if line.startswith("| ") and not line.startswith("| Simplification")]
    deviations = {claim.id: claim.deviation for row in FIGURES.values() for claim in row.claims}
    assert len(rows) == 8
    for _simplification, _paper, path, claims in rows:
        assert (_REPO / path.strip(" `")).is_file(), path
        for claim in re.findall(r"`([^`]+)`", claims):
            assert deviations[claim], claim


def test_shipped_docs_resolve(capsys):
    assert docs_check.main([str(_REPO / name) for name in SHIPPED_DOCS]) == 0, \
        capsys.readouterr().err
