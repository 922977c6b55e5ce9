"""The ``python -m repro.analysis`` command line.

Typical invocations::

    python -m repro.analysis src/repro                  # text report, exit 1 on any finding
    python -m repro.analysis src/repro --format=github  # PR annotations (CI)
    python -m repro.analysis src/repro --format=json --report=analysis-report.json
    python -m repro.analysis --list-rules

A finding is accepted only by an inline ``# repro: allow[rule] reason``
marker on its line or the line above.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import run_analysis
from repro.analysis.report import FORMATS, render, report_payload
from repro.analysis.rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based architectural-invariant linter for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="analysis root finding paths are relative to (default: .)",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="also write the JSON report to this path (any --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None, *, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name} ({rule.severity}): {rule.summary}", file=out)
        return 0

    result = run_analysis(
        [Path(path) for path in args.paths], root=Path(args.root), rules=ALL_RULES
    )

    if args.report:
        Path(args.report).write_text(
            json.dumps(report_payload(result), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    print(render(result, args.format), file=out)
    return 0 if result.ok else 1
