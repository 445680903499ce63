"""Style-rule fixtures, including the TYPE_CHECKING F401 regression."""

from __future__ import annotations

from repro_check import STYLE_RULES, run_rules


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def style(tmp_path, body, name="src/repro/mod.py"):
    write(tmp_path, name, body)
    return run_rules(tmp_path, select=STYLE_RULES)


def test_syn001_reports_syntax_errors(tmp_path):
    findings = style(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == ["SYN001"]


def test_e501_flags_long_lines(tmp_path):
    findings = style(tmp_path, "x = 1  # " + "y" * 100 + "\n")
    assert [f.rule for f in findings] == ["E501"]
    assert "109 > 100" in findings[0].message


def test_w191_flags_tab_indentation(tmp_path):
    findings = style(tmp_path, "if True:\n\tx = 1\n")
    assert [f.rule for f in findings] == ["W191"]


def test_w291_w293_flag_trailing_whitespace(tmp_path):
    findings = style(tmp_path, "x = 1 \n   \ny = 2\n")
    assert [(f.rule, f.line) for f in findings] == [("W291", 1), ("W293", 2)]


def test_f401_flags_unused_import(tmp_path):
    findings = style(tmp_path, "import os\nx = 1\n")
    assert [f.rule for f in findings] == ["F401"]
    assert "'os'" in findings[0].message


def test_f401_accepts_used_and_reexport_idioms(tmp_path):
    assert style(tmp_path,
                 "import os\n"
                 "import repro.gf as gf  # noqa used below\n"
                 "print(os.sep, gf)\n") == []


def test_f401_exempts_init_hubs(tmp_path):
    assert style(tmp_path, "import os\n", name="src/repro/__init__.py") == []


def test_f401_exempts_import_as_same_name(tmp_path):
    assert style(tmp_path, "import os as os\n") == []


def test_f401_exempts_all_listed_names(tmp_path):
    assert style(tmp_path,
                 "from os import sep\n__all__ = [\"sep\"]\n") == []


def test_f401_exempts_type_checking_imports(tmp_path):
    """The lint fallback bug: type-only imports must not be flagged."""
    assert style(tmp_path,
                 "from typing import TYPE_CHECKING\n"
                 "if TYPE_CHECKING:\n"
                 "    from os.path import join\n"
                 "def use(path: \"join\") -> None:\n"
                 "    pass\n") == []


def test_f401_exempts_qualified_type_checking_guard(tmp_path):
    assert style(tmp_path,
                 "import typing\n"
                 "if typing.TYPE_CHECKING:\n"
                 "    import os\n") == []


def test_f401_still_flags_unused_imports_outside_the_guard(tmp_path):
    findings = style(tmp_path,
                     "from typing import TYPE_CHECKING\n"
                     "import os\n"
                     "if TYPE_CHECKING:\n"
                     "    import sys\n")
    assert [(f.rule, f.line) for f in findings] == [("F401", 2)]


def test_style_rules_cover_every_target_not_just_src(tmp_path):
    write(tmp_path, "scripts/tool.py", "import os\n")
    findings = run_rules(tmp_path, select=STYLE_RULES)
    assert [f.path for f in findings] == ["scripts/tool.py"]
