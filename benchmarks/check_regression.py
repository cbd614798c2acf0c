"""CI gate: fail when a routing backend's us/query regressed vs a baseline.

Thin CLI over :mod:`repro.experiments.regression`.  Typical CI usage::

    python benchmarks/check_regression.py \\
        --baseline /tmp/bench-baseline/oracle_backends.txt \\
        --fresh benchmarks/results/oracle_backends.txt \\
        --threshold 0.30 --summary "$GITHUB_STEP_SUMMARY"

With ``--normalize dijkstra`` the comparison uses per-backend times divided
by the reference backend's time from the same table -- required when the
baseline was timed on different hardware (the committed results file).

Exit status: 0 when the gate passes, 1 when any backend regressed beyond
the threshold (or vanished from the fresh table), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.experiments.regression import (
    DEFAULT_THRESHOLD,
    compare_backend_tables,
    format_markdown,
    load_backend_table,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, type=Path,
        help="benchmark table to compare against",
    )
    parser.add_argument(
        "--fresh", required=True, type=Path,
        help="freshly generated benchmark table",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative slowdown that fails the gate (default 0.30 = +30%%)",
    )
    parser.add_argument(
        "--normalize", default=None, metavar="BACKEND",
        help="divide every time by this backend's time from the same table "
        "(use for cross-machine baselines, e.g. 'dijkstra')",
    )
    parser.add_argument(
        "--summary", type=Path, default=None,
        help="append the markdown report to this file (CI job summary)",
    )
    args = parser.parse_args(argv)
    try:
        # A sibling .json with the same stem wins over the text table (see
        # load_backend_table), so passing the .txt path keeps working.
        baseline = load_backend_table(args.baseline)
        fresh = load_backend_table(args.fresh)
        deltas = compare_backend_tables(
            baseline, fresh, threshold=args.threshold, normalize=args.normalize
        )
    except (OSError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = format_markdown(
        deltas, threshold=args.threshold, normalize=args.normalize
    )
    print(report)
    if args.summary is not None:
        with args.summary.open("a") as handle:
            handle.write(report + "\n")
    return 1 if any(d.regressed for d in deltas) else 0


if __name__ == "__main__":
    sys.exit(main())
