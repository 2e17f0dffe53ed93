"""The lint CLI: ``python -m repro.lint [paths] [--json] [--rule ID]``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error.  ``--output``
writes the JSON report to a file regardless of the exit code, so CI can
upload it as an artifact from a failing gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import ALL_RULE_IDS, RULES, lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analyzer enforcing the repo's reproducibility contract "
            "(determinism hazards D1-D4, spec purity S1-S2, test-only "
            "code U1)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src, else the cwd)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON on stdout instead of text",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        choices=ALL_RULE_IDS,
        help="restrict to one rule id (repeatable); default: every rule",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE (written even on findings)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _default_paths() -> list[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        width = max(len(rule.id) for rule in RULES)
        for rule in RULES:
            print(f"{rule.id:<{width}}  {rule.name:<22} {rule.description}")
        return 0

    paths = args.paths or _default_paths()
    try:
        report = lint_paths(paths, rule_ids=args.rule)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s)"
            if report.findings
            else "clean"
        )
        print(
            f"repro.lint: {summary} in {report.checked_files} file(s) "
            f"(rules: {', '.join(report.rule_ids)})"
        )
    return 1 if report.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
