"""Self-check: the shipped repository passes its own analyzer."""

from __future__ import annotations

from pathlib import Path

from repro_check import STYLE_RULES, all_rules, run_rules
from repro_check.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_clean_under_every_rule():
    findings = run_rules(REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_the_repository(capsys):
    assert main(["--no-mypy"]) == 0
    out = capsys.readouterr().out
    assert "analyze: clean" in out


def test_cli_select_subset(capsys):
    assert main(["--select", "det001,sup001"]) == 0
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


def test_style_subset_matches_lint_contract():
    # make lint selects exactly these rules, by name, on the one CLI.
    assert set(STYLE_RULES) == {"SYN001", "E501", "W191", "W291", "W293",
                                "F401"}
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    assert f"-m repro_check --select {','.join(STYLE_RULES)}\n" in makefile
    assert run_rules(REPO_ROOT, select=STYLE_RULES) == []
