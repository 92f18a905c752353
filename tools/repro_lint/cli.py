"""Command-line interface: ``python -m repro_lint [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import repro_lint.rules  # noqa: F401  (registers the built-in rules)
from repro_lint.engine import lint_paths
from repro_lint.registry import all_rules
from repro_lint.reporters import render_json, render_sarif, render_text


def _parse_codes(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [c.strip() for c in raw.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description=(
            "Domain-aware static analysis for the repro codebase: "
            "numeric-stability, reproducibility, and pickle-safety "
            "conventions, machine-checked."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files and/or directories to lint (recursed for *.py)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif is SARIF 2.1.0)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help=(
            "base directory for path-scoped rules "
            "(default: current working directory)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for per-file analysis (default: 1; "
            "output is byte-identical either way)"
        ),
    )
    parser.add_argument(
        "--cache-path",
        metavar="FILE",
        help=(
            "JSON cache of per-file verdicts; replayed when neither "
            "the file nor the rule set changed"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro_lint: error: no paths given", file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("repro_lint: error: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        report = lint_paths(
            args.paths,
            select=_parse_codes(args.select),
            ignore=_parse_codes(args.ignore),
            root=Path(args.root) if args.root else None,
            jobs=args.jobs,
            cache_path=Path(args.cache_path) if args.cache_path else None,
        )
    except (FileNotFoundError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"repro_lint: error: {msg}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
