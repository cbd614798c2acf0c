"""The time grid: every travel time and request time is a multiple of 2^-10 s.

Sums and differences of grid values below 2^43 s are exact in float64, so
every routing backend and every summation order yields the same float, and
a feasibility test is one exact comparison.  Four writers put times on the
grid: :meth:`~repro.network.road_network.RoadNetwork.add_edge` (weights,
rounded up), :class:`~repro.model.request.Request` (release up, deadline
and waiting time down, direct cost up), ``SimulationConfig.batch_period``
and ``ChaosOracle``'s corrupted answers (both up); a plan feasible on the
grid is then feasible for the times as given.
"""

from __future__ import annotations

import math

__all__ = ["TIME_GRID", "to_grid"]

#: Resolution of every time in the dispatch path, in seconds.
TIME_GRID = 2.0 ** -10


def to_grid(seconds: float, *, up: bool) -> float:
    """``seconds`` rounded up (or down) to a multiple of :data:`TIME_GRID`.

    Grid values come back unchanged, and so do infinities, NaN and every
    float of magnitude 2^42 or more (their ulp is already a grid step).
    """
    if not abs(seconds) < 2.0 ** 42:
        return seconds
    scaled = seconds / TIME_GRID
    return (math.ceil(scaled) if up else math.floor(scaled)) * TIME_GRID
