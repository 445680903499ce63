"""``python -m repro_check`` — the repro-check CLI.

Runs every registered rule (style + invariants) over the repository, then
the strict-mypy gate, and exits non-zero on any finding.  ``make analyze``
invokes exactly this; ``make lint`` selects the style rules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro_check import all_rules, run_rules
from repro_check.mypy_gate import run_mypy


def _repo_root() -> Path:
    # repro_check/__main__.py -> the repository root is the package's parent.
    return Path(__file__).resolve().parents[1]


def _github_annotation(finding) -> str:
    """One finding as a GitHub Actions workflow command.

    ``::error file=...,line=...,title=RULE::message`` makes the analyze
    job surface findings inline on the PR diff.  Newlines and the
    characters the workflow-command grammar reserves are percent-escaped
    per the Actions toolkit rules.
    """
    def escape(text: str, extra: tuple[str, ...] = ()) -> str:
        text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        for char in extra:
            text = text.replace(char, f"%{ord(char):02X}")
        return text

    properties = escape(finding.path, (":", ","))
    title = escape(finding.rule, (":", ","))
    return (f"::error file={properties},line={finding.line},"
            f"title={title}::{escape(finding.message)}")


def _parse_select(raw: list[str]) -> list[str] | None:
    if not raw:
        return None
    names: list[str] = []
    for chunk in raw:
        names.extend(name.strip().upper() for name in chunk.split(",")
                     if name.strip())
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="repo-specific static invariant analyzer",
    )
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root to analyze (default: this repo)")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULES",
                        help="comma-separated rule names to run "
                             "(default: all; repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--no-mypy", action="store_true",
                        help="skip the strict-mypy gate")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text",
                        help="finding output format: plain text (default) "
                             "or GitHub workflow ::error annotations")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(all_rules().items()):
            print(f"{name}: {rule.description}")
        return 0

    root = (args.root or _repo_root()).resolve()
    select = _parse_select(args.select)
    try:
        findings = run_rules(root, select=select)
    except ValueError as error:
        parser.error(str(error))
    for finding in findings:
        if args.format == "github":
            print(_github_annotation(finding))
        else:
            print(finding.render())

    status = 0
    if findings:
        print(f"analyze: {len(findings)} finding(s)")
        status = 1

    if select is None and not args.no_mypy:
        mypy_status = run_mypy(root)
        if mypy_status is None:
            print("analyze: mypy not installed; skipping the typed-core gate "
                  "(CI enforces it)")
        elif mypy_status != 0:
            status = 1

    if status == 0:
        print("analyze: clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
