"""repro-lint engine: file discovery, waiver parsing and rule dispatch.

The engine is deliberately small: it parses each file once, hands the
shared :class:`~repro.analysis.rules.FileContext` to every applicable rule,
then applies per-line waivers.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from .rules import RULES, FileContext, Rule, Violation

__all__ = [
    "FileReport",
    "WAIVER_PATTERN",
    "analyze_path",
    "analyze_paths",
    "iter_python_files",
]

#: ``# repro-lint: disable=<CODE>[,<CODE>] <reason>`` -- the reason is
#: mandatory (enforced as WVR001, not by the regex, so a reasonless waiver
#: still suppresses while the missing reason is reported).
WAIVER_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z]{3,4}\d{3}(?:\s*,\s*[A-Z]{3,4}\d{3})*)"
    r"[ \t]*(?P<reason>[^#]*)"
)

#: Directory names never descended into when expanding directory arguments.
#: ``lint_fixtures`` holds deliberately-violating test fixtures; explicitly
#: named files are always analyzed, so the fixture tests are unaffected.
EXCLUDED_DIRS = frozenset({".git", "__pycache__", ".venv", "build", "dist", "lint_fixtures"})


@dataclass(frozen=True)
class Waiver:
    line: int
    codes: tuple[str, ...]
    reason: str


@dataclass
class FileReport:
    """Violations for one file, after waivers."""

    path: str
    violations: list[Violation] = field(default_factory=list)
    waivers: list[Waiver] = field(default_factory=list)


def parse_waivers(lines: list[str]) -> dict[int, Waiver]:
    waivers: dict[int, Waiver] = {}
    for lineno, text in enumerate(lines, start=1):
        match = WAIVER_PATTERN.search(text)
        if match is None:
            continue
        codes = tuple(code.strip() for code in match.group("codes").split(","))
        reason = match.group("reason").strip()
        waivers[lineno] = Waiver(line=lineno, codes=codes, reason=reason)
    return waivers


def analyze_source(path: str, source: str, rules: tuple[type[Rule], ...] = RULES) -> FileReport:
    """Run every applicable rule over *source*, applying per-line waivers."""
    report = FileReport(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.violations.append(
            Violation(
                code="PARSE",
                path=path,
                line=exc.lineno or 1,
                column=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        )
        return report

    ctx = FileContext(path=path, tree=tree)
    waivers = parse_waivers(source.splitlines())
    report.waivers = sorted(waivers.values(), key=lambda w: w.line)

    raw: list[Violation] = []
    for rule_cls in rules:
        rule = rule_cls()
        if rule.applies_to(path):
            raw.extend(rule.check(ctx))

    for violation in raw:
        waiver = waivers.get(violation.line)
        if waiver is not None and violation.code in waiver.codes:
            continue  # suppressed; WVR001 below still enforces the reason
        report.violations.append(violation)

    for waiver in report.waivers:
        if not waiver.reason:
            report.violations.append(
                Violation(
                    code="WVR001",
                    path=path,
                    line=waiver.line,
                    column=0,
                    message=(
                        "waiver without a reason; write `# repro-lint: "
                        "disable=<CODE> <why this line is exempt>`"
                    ),
                )
            )

    report.violations.sort(key=lambda v: (v.line, v.column, v.code))
    return report


def analyze_path(path: Path, root: Path, rules: tuple[type[Rule], ...] = RULES) -> FileReport:
    rel = relative_posix(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        report = FileReport(path=rel)
        report.violations.append(
            Violation(code="PARSE", path=rel, line=1, column=0, message=f"unreadable: {exc}")
        )
        return report
    return analyze_source(rel, source, rules)


def analyze_paths(
    paths: list[Path], root: Path, rules: tuple[type[Rule], ...] = RULES
) -> list[FileReport]:
    files = iter_python_files(paths)
    return [analyze_path(path, root, rules) for path in files]


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively, skipping :data:`EXCLUDED_DIRS`;
    explicitly named files are always included (this is how the fixture
    tests lint files living under the otherwise-excluded directory).
    """
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in EXCLUDED_DIRS for part in candidate.parts):
                    continue
                seen.setdefault(candidate.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
    return sorted(seen)


def relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
