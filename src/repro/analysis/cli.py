"""Command-line entry point for ``repro-lint``.

Usage::

    repro-lint [paths ...]            # lint (default: src tests benchmarks)
    repro-lint --list-rules           # print the rule catalog
    repro-lint --statistics           # per-rule hit counts after the findings
    repro-lint --summary out.md       # markdown rule-hit table (CI job summary)

Exit status: 0 when no unwaived violation remains, 1 otherwise, 2 on a
missing path.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .engine import analyze_paths
from .rules import Violation, rule_catalog

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & invariant static analysis for the StructRide repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repo root used for relative paths and rule scoping (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--statistics", action="store_true", help="print a per-rule hit count table"
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="write a markdown rule-hit summary table to this file (append)",
    )
    return parser


def _resolve_paths(args: argparse.Namespace) -> list[Path]:
    if args.paths:
        return [Path(p) for p in args.paths]
    defaults = [args.root / name for name in DEFAULT_PATHS]
    return [path for path in defaults if path.exists()] or [args.root]


def _statistics(violations: list[Violation]) -> list[tuple[str, int]]:
    """(code, hits) for every rule in catalog order, then any other code (PARSE)."""
    counts = Counter(v.code for v in violations)
    rows = [(code, counts.pop(code, 0)) for code, _summary in rule_catalog()]
    rows.extend(sorted(counts.items()))
    return rows


def _print_statistics(rows: list[tuple[str, int]], waiver_count: int) -> None:
    print()
    print(f"{'rule':<8} {'hits':>6}")
    for code, hits in rows:
        print(f"{code:<8} {hits:>6}")
    print(f"{'waivers':<8} {waiver_count:>6}")


def _write_summary(
    path: Path,
    rows: list[tuple[str, int]],
    violations: list[Violation],
    waiver_count: int,
    files: int,
) -> None:
    summaries = dict(rule_catalog())
    lines = [
        "## repro-lint",
        "",
        f"{files} files analyzed, {len(violations)} violation(s), {waiver_count} waiver(s).",
        "",
        "| rule | hits | summary |",
        "| --- | ---: | --- |",
    ]
    for code, hits in rows:
        lines.append(f"| {code} | {hits} | {summaries.get(code, '—')} |")
    if violations:
        lines += ["", "### Violations", ""]
        lines += [f"- `{violation.render()}`" for violation in violations[:50]]
        if len(violations) > 50:
            lines.append(f"- … and {len(violations) - 50} more")
    lines.append("")
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for code, summary in rule_catalog():
            print(f"{code}  {summary}")
        return 0

    paths = _resolve_paths(args)
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    reports = analyze_paths(paths, args.root)
    violations = [violation for report in reports for violation in report.violations]
    for violation in violations:
        print(violation.render())

    waiver_count = sum(len(report.waivers) for report in reports)
    rows = _statistics(violations)
    if args.statistics:
        _print_statistics(rows, waiver_count)
    if args.summary is not None:
        _write_summary(args.summary, rows, violations, waiver_count, files=len(reports))

    if violations:
        print(f"\nrepro-lint: {len(violations)} violation(s) in {len(reports)} file(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
