"""Self-check: the shipped repository passes its own analyzer; the CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro_check import STYLE_RULES, all_rules, run_rules
from repro_check.__main__ import _github_annotation, main
from repro_check.framework import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_clean_under_every_rule():
    findings = run_rules(REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_the_repository(capsys):
    assert main(["--no-mypy"]) == 0
    out = capsys.readouterr().out
    assert "analyze: clean" in out


def test_cli_select_subset(capsys):
    assert main(["--select", "det001"]) == 0
    assert "analyze: clean" in capsys.readouterr().out


def test_cli_rejects_unknown_rules(capsys):
    try:
        main(["--select", "NOPE999"])
    except SystemExit as error:
        assert error.code == 2
    else:  # pragma: no cover - argparse always raises
        raise AssertionError("unknown rule must be a usage error")


def test_cli_list_rules_names_every_registered_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in all_rules():
        assert name in out


def test_cli_list_rules_is_det001_and_the_style_rules(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split(":", 1)[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted({"DET001", *STYLE_RULES})


def test_no_exemption_directive_is_left():
    # DET001's clock half skips whole modules; no file carries a per-line
    # exemption comment any more.
    needle = "repro: " + "allow-"
    holders = [
        str(path.relative_to(REPO_ROOT))
        for top in ("src", "repro_check", "tests", "scripts", "benchmarks",
                    "examples")
        for path in sorted((REPO_ROOT / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and needle in path.read_text(encoding="utf-8", errors="ignore")
    ]
    assert holders == []


def test_style_subset_matches_lint_contract():
    # make lint selects exactly these rules, by name, on the one CLI.
    assert set(STYLE_RULES) == {"SYN001", "E501", "W191", "W291", "W293",
                                "F401"}
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    assert f"-m repro_check --select {','.join(STYLE_RULES)}\n" in makefile
    assert run_rules(REPO_ROOT, select=STYLE_RULES) == []


# -- CLI: --select validation, exit codes, output formats ------------------- #

WALLCLOCK = "import time\nt = time.time()\n"


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_unknown_rule_name_errors_before_running(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(tmp_path, select=["NOPE999"])


def test_cli_exit_codes_clean_and_dirty(tmp_path, capsys):
    write(tmp_path, "src/repro/x.py", "x = 1\n")
    assert main(["--root", str(tmp_path), "--select", "DET001"]) == 0
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
    rendered = _github_annotation(
        Finding("DET001", "src/repro/x.py", 3, "bad%\nworse"))
    assert rendered == ("::error file=src/repro/x.py,line=3,"
                        "title=DET001::bad%25%0Aworse")
