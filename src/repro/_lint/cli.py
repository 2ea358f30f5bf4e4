"""Command line interface and reporting for repro-lint.

Usage (CI runs exactly this, blocking)::

    PYTHONPATH=src python -m repro._lint src tests benchmarks examples cdrbench

Exit codes: ``0`` clean, ``1`` findings or stale baseline entries, ``2``
usage / environment errors.  ``--format json`` emits a machine-readable
report for CI annotation; the baseline convention is documented in
:mod:`repro._lint.baseline`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .base import all_rules
from .baseline import Baseline, BaselineError
from .walker import lint_paths

__all__ = ["main", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = "repro_lint_baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro._lint",
        description=(
            "AST-based determinism & spawn-safety analyzer for this repository "
            "(rules RPL001-RPL009; see ARCHITECTURE.md for the table)"
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--root",
        default=".",
        help="repository root used to compute scoping-relevant relative paths (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit "
        "(for bootstrapping a rule; review the diff — the list only shrinks)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _list_rules(stream) -> None:
    for rule in all_rules():
        print(f"{rule.code} {rule.name}: {rule.summary}", file=stream)


def main(argv: list[str] | None = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        _list_rules(stream)
        return 0
    if not args.paths:
        print("error: no paths given (try: python -m repro._lint src tests)", file=sys.stderr)
        return 2

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2
    for raw in args.paths:
        path = Path(raw) if Path(raw).is_absolute() else root / raw
        if not path.exists():
            print(f"error: path {raw} does not exist", file=sys.stderr)
            return 2

    findings = lint_paths(args.paths, root)

    baseline_path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    if args.write_baseline:
        Baseline.write(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}", file=stream)
        return 0

    suppressed = 0
    stale: list[dict] = []
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        total = len(findings)
        findings, stale = baseline.apply(findings)
        suppressed = total - len(findings)

    if args.format == "json":
        report = {
            "version": 1,
            "findings": [finding.to_dict() for finding in findings],
            "stale_baseline": stale,
            "summary": {
                "findings": len(findings),
                "suppressed_by_baseline": suppressed,
                "stale_baseline_entries": sum(entry["count"] for entry in stale),
            },
        }
        print(json.dumps(report, indent=2), file=stream)
    else:
        for finding in findings:
            print(finding.render(), file=stream)
        for entry in stale:
            print(
                f"{entry['path']}: stale baseline entry for {entry['code']} "
                f"(snippet {entry['snippet']!r} x{entry['count']}) — the violation is "
                f"gone, delete the entry (the baseline only shrinks)",
                file=stream,
            )
        noun = "finding" if len(findings) == 1 else "findings"
        summary = f"{len(findings)} {noun}"
        if suppressed:
            summary += f" ({suppressed} suppressed by baseline)"
        if stale:
            summary += f", {len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
        print(summary, file=stream)

    return 1 if findings or stale else 0
