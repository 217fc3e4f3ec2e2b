"""``python -m repro.lint`` — run the invariant checker from the shell.

Exit status: 0 when clean, 1 on any finding (a parse error's ``E999``
included), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import repro.lint.rules  # lint: disable=R9 (imported to register the built-in rules)
from repro.lint.config import LintConfig
from repro.lint.core import all_rules
from repro.lint.engine import run_lint
from repro.lint.reporters import json_report, text_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for the repro stack, ten rules: "
            "cache mutation, collective symmetry, RNG hygiene, float "
            "equality, export drift, fault-injection registry, wall-clock "
            "hygiene, NumPy scalar promotion, unused imports, workspace "
            "escape (see --list-rules)."
        ),
        epilog=(
            "exit status: 0 when clean, 1 on any finding, 2 on a usage error"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only these rules (codes or names)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=None,
        metavar="RULE[,RULE...]",
        help="skip these rules (codes or names)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split(groups: Optional[Sequence[str]]) -> Optional[List[str]]:
    if groups is None:
        return None
    return [item for group in groups for item in group.split(",") if item.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        rules = all_rules()
        code_w = max(len(r.code) for r in rules)
        name_w = max(len(r.name) for r in rules)
        for r in rules:
            print(f"{r.code:<{code_w}}  {r.name:<{name_w}}  {r.description}")
        return 0
    try:
        config = LintConfig.from_cli(
            select=_split(args.select),
            disable=_split(args.disable),
        )
        result = run_lint(args.paths, config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = json_report(result) if args.format == "json" else text_report(result)
    try:
        print(report)
    except BrokenPipeError:  # e.g. piped into `head`; exit status still counts
        sys.stderr.close()
    return result.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
