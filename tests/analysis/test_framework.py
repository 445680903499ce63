"""Framework mechanics: registry, project loading, call resolution."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro_check import STYLE_RULES, all_rules, get_rule
from repro_check.framework import (
    AnalysisConfig,
    Finding,
    Project,
    import_aliases,
    resolve_call_name,
)


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


INVARIANTS_DOC = Path(__file__).resolve().parents[2] / "docs" / "invariants.md"


def test_every_documented_rule_is_registered():
    """docs/invariants.md has one ``### RULE —`` heading per registered rule,
    and the rules ``make lint`` selects are the style rules."""
    documented = re.findall(r"^### ([A-Z]+[0-9]+) ", INVARIANTS_DOC.read_text(),
                            flags=re.MULTILINE)
    assert sorted(documented) == sorted(all_rules())
    assert set(STYLE_RULES) < set(all_rules())


def test_rules_have_names_and_descriptions():
    for name, rule in all_rules().items():
        assert rule.name == name
        assert rule.description


def test_get_rule_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rule("NOPE999")


def test_finding_render_is_path_line_rule():
    finding = Finding("DET001", "src/repro/x.py", 7, "boom")
    assert finding.render() == "src/repro/x.py:7: DET001 boom"


def test_project_loads_targets_and_under(tmp_path):
    write(tmp_path, "src/repro/a.py", "x = 1\n")
    write(tmp_path, "src/repro/sub/b.py", "y = 2\n")
    write(tmp_path, "elsewhere/c.py", "z = 3\n")
    project = Project(tmp_path, ("src", "src/repro/a.py"))
    assert [source.relative for source in project.files] \
        == ["src/repro/a.py", "src/repro/sub/b.py"]
    under = [source.relative for source in project.under("src/repro")]
    assert under == ["src/repro/a.py", "src/repro/sub/b.py"]


def test_import_aliases_resolve_calls():
    tree = ast.parse(
        "import time\n"
        "import numpy as np\n"
        "from time import perf_counter as pc\n"
    )
    aliases = import_aliases(tree)
    assert aliases == {"time": "time", "np": "numpy", "pc": "time.perf_counter"}
    call = ast.parse("np.random.default_rng()").body[0].value
    assert resolve_call_name(call.func, aliases) == "numpy.random.default_rng"
    bare = ast.parse("pc()").body[0].value
    assert resolve_call_name(bare.func, aliases) == "time.perf_counter"


def test_config_defaults_describe_this_repo():
    config = AnalysisConfig()
    assert config.src_prefix == "src/repro"
    root = Path(__file__).resolve().parents[2]
    assert all((root / target).exists() for target in config.style_targets)
    # The analyzer lints itself; ruff covers the same files.
    assert "repro_check" in config.style_targets
    assert "repro_check/**/*.py" in (root / "pyproject.toml").read_text()
