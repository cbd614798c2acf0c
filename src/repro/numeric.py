"""Float tolerance helpers for cost/weight comparisons.

Costs in this codebase are sums of float edge weights; two mathematically
equal routes can differ in the last ulp depending on summation order,
routing backend and repair history.  Exact ``==`` on such values makes
acceptance decisions backend-dependent, so repro-lint rule ``INV002`` bans
it inside ``src/repro/`` and points here.

The default tolerances mirror the long-standing ad-hoc constants already
used across the codebase: ``1e-9`` relative (schedule feasibility slack)
with a small absolute floor so comparisons against zero behave.  Infinity
is handled exactly -- two infinite costs are equal, an infinite and a
finite cost never are -- which keeps the idiomatic unreachable sentinel
working without special-casing at call sites.
"""

from __future__ import annotations

import math

__all__ = ["COST_ABS_TOL", "COST_REL_TOL", "costs_close", "costs_differ", "costs_equal"]

#: Relative tolerance for cost equality, matching the schedule slack used
#: since the seed (``deadline + 1e-9``).
COST_REL_TOL = 1e-9

#: Absolute floor so ``costs_equal(x, 0.0)`` is meaningful for tiny x.
COST_ABS_TOL = 1e-12


def costs_equal(
    a: float, b: float, *, rel_tol: float = COST_REL_TOL, abs_tol: float = COST_ABS_TOL
) -> bool:
    """True when two costs are equal up to tolerance (infinity compared exactly)."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def costs_differ(
    a: float, b: float, *, rel_tol: float = COST_REL_TOL, abs_tol: float = COST_ABS_TOL
) -> bool:
    """Negation of :func:`costs_equal`; reads better in guard clauses."""
    return not costs_equal(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def costs_close(a: float, b: float) -> bool:
    """The one "exact against fresh Dijkstra" rule: absolute error <= 1e-6 s.

    The invariant probes, assignment verification and the scenario parity
    probe (see :func:`repro.resilience.probes.exact_cost_failures`) compare
    costs computed by *different algorithms* (hub-label joins over one
    hierarchy or another, a fresh Dijkstra), whose summation order differs, so the
    within-backend tolerance of :func:`costs_equal` is too tight.  Infinity
    is compared exactly; NaN is never close.
    """
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-6
