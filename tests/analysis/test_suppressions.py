"""Suppression semantics: file scope, the SUP001 audit, --select, exit codes."""

from __future__ import annotations

import pytest

from repro_check import run_rules
from repro_check.__main__ import main


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


WALLCLOCK = "import time\nt = time.time()\n"


# -- module-scope suppressions --------------------------------------------- #

def test_file_scope_suppression_covers_the_whole_module(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "# repro: allow-DET001 file — timing harness module\n"
          "import time\n"
          "t = time.time()\n"
          "u = time.time()\n")
    assert run_rules(tmp_path, select=["DET001"]) == []


def test_file_scope_is_still_rule_specific(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "# repro: allow-E501 file\n" + WALLCLOCK)
    findings = run_rules(tmp_path, select=["DET001", "E501"])
    assert [f.rule for f in findings] == ["DET001"]


@pytest.mark.parametrize("placement", ["trailing", "standalone", "file"])
def test_every_placement_suppresses_and_counts_as_used(tmp_path, placement):
    if placement == "trailing":
        body = "import time\nt = time.time()  # repro: allow-DET001 reason\n"
    elif placement == "standalone":
        body = "import time\n# repro: allow-DET001 reason\nt = time.time()\n"
    else:
        body = "# repro: allow-DET001 file\nimport time\nt = time.time()\n"
    write(tmp_path, "src/repro/x.py", body)
    assert run_rules(tmp_path, select=["DET001", "SUP001"]) == []


# -- the unused-suppression audit ------------------------------------------ #

def test_unused_suppression_is_flagged(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "x = 1  # repro: allow-DET001 nothing here needs this\n")
    findings = run_rules(tmp_path, select=["DET001", "SUP001"])
    assert len(findings) == 1
    assert findings[0].rule == "SUP001"
    assert "unused suppression" in findings[0].message
    assert "allow-DET001" in findings[0].message


def test_unused_file_scope_suppression_names_its_scope(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "# repro: allow-DET001 file\nx = 1\n")
    findings = run_rules(tmp_path, select=["DET001", "SUP001"])
    assert len(findings) == 1
    assert "anywhere in this file" in findings[0].message


def test_audit_only_covers_rules_that_ran(tmp_path):
    # The E501 comment is unused, but E501 did not run: a partial
    # --select must not flag comments belonging to rules it skipped.
    write(tmp_path, "src/repro/x.py",
          "x = 1  # repro: allow-E501 legacy path\n")
    assert run_rules(tmp_path, select=["DET001", "SUP001"]) == []
    findings = run_rules(tmp_path, select=["E501", "SUP001"])
    assert [f.rule for f in findings] == ["SUP001"]


def test_select_sup001_alone_audits_against_all_rules_silently(tmp_path):
    write(tmp_path, "src/repro/x.py",
          WALLCLOCK +                       # a real DET001 finding ...
          "u = time.time()  # repro: allow-DET001 used\n"
          "y = 2  # repro: allow-E501 unused\n")
    findings = run_rules(tmp_path, select=["SUP001"])
    # ... is NOT reported (rules ran only to credit suppressions), the
    # used DET001 comment is not flagged, the unused E501 one is.
    assert [f.rule for f in findings] == ["SUP001"]
    assert "allow-E501" in findings[0].message


def test_sup001_findings_can_themselves_be_suppressed(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "# repro: allow-SUP001 — kept for a cron-only rule subset\n"
          "x = 1  # repro: allow-DET001\n")
    assert run_rules(tmp_path, select=["DET001", "SUP001"]) == []


# -- mentions are not suppressions ----------------------------------------- #

def test_docstring_mention_is_neither_site_nor_cover(tmp_path):
    write(tmp_path, "src/repro/x.py",
          '"""Docs quoting the `# repro: allow-DET001` syntax."""\n'
          "import time\n"
          "t = time.time()\n")
    findings = run_rules(tmp_path, select=["DET001", "SUP001"])
    assert [f.rule for f in findings] == ["DET001"]


def test_string_literal_mention_is_not_audited(tmp_path):
    write(tmp_path, "src/repro/x.py",
          'MESSAGE = "annotate with # repro: allow-DET001 when measuring"\n')
    assert run_rules(tmp_path, select=["DET001", "SUP001"]) == []


def test_directive_must_open_its_comment(tmp_path):
    write(tmp_path, "src/repro/x.py",
          "import time\n"
          "t = time.time()  # see docs on repro: allow-DET001\n")
    findings = run_rules(tmp_path, select=["DET001", "SUP001"])
    assert [f.rule for f in findings] == ["DET001"]


# -- CLI: --select validation, exit codes, output formats ------------------- #

def test_unknown_rule_name_errors_before_running(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(tmp_path, select=["NOPE999"])


def test_cli_exit_codes_clean_and_dirty(tmp_path, capsys):
    write(tmp_path, "src/repro/x.py", "x = 1\n")
    assert main(["--root", str(tmp_path), "--select", "DET001,SUP001"]) == 0
    assert "clean" in capsys.readouterr().out
    write(tmp_path, "src/repro/y.py", WALLCLOCK)
    assert main(["--root", str(tmp_path), "--select", "DET001"]) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_cli_github_format_emits_error_annotations(tmp_path, capsys):
    write(tmp_path, "src/repro/x.py", WALLCLOCK)
    status = main(["--root", str(tmp_path), "--select", "DET001",
                   "--format", "github"])
    out = capsys.readouterr().out
    assert status == 1
    assert "::error file=src/repro/x.py,line=2,title=DET001::" in out


def test_cli_github_format_escapes_newlines():
    from repro_check.__main__ import _github_annotation
    from repro_check.framework import Finding
    rendered = _github_annotation(
        Finding("DET001", "src/repro/x.py", 3, "bad%\nworse"))
    assert rendered == ("::error file=src/repro/x.py,line=3,"
                        "title=DET001::bad%25%0Aworse")
