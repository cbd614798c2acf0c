"""repro-lint: repo-specific determinism & invariant static analysis.

The correctness story of this reproduction rests on conventions that are
invisible to generic linters: every random draw flows through a seeded
``random.Random`` stream, simulated time comes from the virtual batch clock
(never the wall clock) and no decision iterates a bare ``set``.  One
unseeded ``random.random()`` or a stray ``time.time()`` in a hot path
silently breaks the deterministic-summary and chaos-parity gates CI relies
on -- long after review.

This package encodes those conventions as per-file AST rules (see
:mod:`repro.analysis.rules` for the catalog).  The one escape hatch is a
**waiver** -- ``# repro-lint: disable=<CODE> <reason>`` on the violating
line; the reason is mandatory and lint-enforced (``WVR001``).

Run it as ``repro-lint src tests benchmarks`` (console script) or
``python -m repro.analysis.cli``.
"""

from .engine import FileReport, analyze_path, analyze_paths, iter_python_files
from .rules import RULES, Rule, Violation, rule_catalog

__all__ = [
    "RULES",
    "FileReport",
    "Rule",
    "Violation",
    "analyze_path",
    "analyze_paths",
    "iter_python_files",
    "rule_catalog",
]
