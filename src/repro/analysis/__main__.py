"""``python -m repro.analysis`` — the static-analysis CLI.

Exit codes: 0 clean, 1 findings outside the baseline, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.baseline import Baseline
from repro.analysis.report import render_github, render_json, render_text
from repro.analysis.rules import all_rules
from repro.analysis.runner import analyze


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repro rule-based static analyzer.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="run only these rule ids (repeat or comma-separate)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="RULE",
        help="skip these rule ids (repeat or comma-separate)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (default: text); 'github' emits Actions "
             "::error/::warning annotations",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental dataflow cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="incremental cache location "
             "(default: ./.repro-analysis-cache)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="JSON allowlist; matching findings don't fail the run",
    )
    parser.add_argument(
        "--no-context", action="store_true",
        help="don't index the installed repro package as context "
             "(faster, but cross-module rules see less)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print suppressed and baselined findings (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split_ids(values: list[str]) -> tuple[str, ...]:
    out: list[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    try:
        result = analyze(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            baseline=baseline,
            include_context=not args.no_context,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
