"""Compare two ledgers: ``python benchmarks/ledger/compare.py A.json B.json``.

``A`` is the parent (or the first of two runs of one commit), ``B`` the
change; both are ``ledger.json`` files written by ``run.py --out``.  For every
(workload, end-to-end metric) the verdict is one of

* ``same`` / ``better`` / ``worse`` -- timed metrics against the same-seed
  bound the catalogue fixes (B's median worse, or better, than A's by more
  than the bound); exact metrics and the unserved and failed operation
  counts are compared exactly;
* ``unresolved`` -- the spread between A's own repeats, quartile to
  quartile, is wider than the bound, unless every repeat of B reads better
  than every repeat of A (or worse, and beyond the bound).

One pair of ledgers resolves regressions; a gain is claimed from ten
alternating pairs (see README.md).

Any ``worse`` makes the exit code 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from metrics import END_TO_END, EndToEnd

#: "Every repeat of one side beats every repeat of the other" needs repeats.
MIN_REPEATS_TO_SEPARATE = 3


def verdict(metric: EndToEnd, a: dict, b: dict) -> str:
    """How ``b`` reads against ``a`` for one end-to-end metric."""
    sign = 1.0 if metric.better == "higher" else -1.0
    gain = sign * (b["value"] - a["value"])
    if metric.exact:
        if math.isclose(a["value"], b["value"], rel_tol=1e-9, abs_tol=1e-12):
            return "same"
        return "better" if gain > 0 else "worse"
    bound = metric.same_seed_bound
    relative = gain / abs(a["value"])
    spread = (a["q3"] - a["q1"]) / abs(a["value"])
    if spread > bound:
        a_raw = [sign * value for value in a["raw"]]
        b_raw = [sign * value for value in b["raw"]]
        if min(len(a_raw), len(b_raw)) >= MIN_REPEATS_TO_SEPARATE:
            if min(b_raw) > max(a_raw):
                return "better"
            if max(b_raw) < min(a_raw) and relative < -bound:
                return "worse"
        return "unresolved"
    if relative < -bound:
        return "worse"
    return "better" if relative > bound else "same"


def count_verdict(a: int, b: int) -> str:
    """Unserved / failed operations: fewer is better, compared exactly."""
    return "same" if a == b else ("better" if b < a else "worse")


def compare(a: dict, b: dict) -> list[tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, a, b, verdict)`` over the shared workloads."""
    rows = []
    for name, first in a["workloads"].items():
        second = b["workloads"].get(name)
        if second is None or "end_to_end" not in first or "end_to_end" not in second:
            continue
        for metric in END_TO_END:
            x, y = first["end_to_end"][metric.name], second["end_to_end"][metric.name]
            rows.append((name, metric.name, x["value"], y["value"], verdict(metric, x, y)))
        for key in ("ops_unserved", "ops_failed"):
            rows.append(
                (name, key, first[key], second[key], count_verdict(first[key], second[key]))
            )
        if not second["correct"]:
            rows.append((name, "checks", 1.0, 0.0, "worse"))
    return rows


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    rows = compare(a, b)
    print(f"{'workload':<18}{'metric':<24}{'A':>14}{'B':>14}{'change':>9}  verdict")
    for workload, metric, x, y, result in rows:
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{workload:<18}{metric:<24}{x:>14.6g}{y:>14.6g}{change:>9}  {result}")
    worse = sum(result == "worse" for *_, result in rows)
    print(f"\n{len(rows)} comparisons, {worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
