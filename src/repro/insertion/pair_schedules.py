"""Two-request shareability test (the edge predicate of the shareability graph).

Two requests ``r_a`` and ``r_b`` are *shareable* when at least one feasible
schedule serves both on the same trip (Definition 5).  Following the paper's
construction (Section III-B), only schedules whose first way-point is the
source of ``r_a`` are considered, which avoids counting each unordered pair
twice:

* ``<s_a, s_b, e_a, e_b>`` (interleaved, drop the anchor last),
* ``<s_a, s_b, e_b, e_a>`` (interleaved, drop the candidate last),
* ``<s_a, e_a, s_b, e_b>`` (sequential service -- Definition 5 only asks for
  *some* feasible schedule serving both, which the paper's builder tests with
  two linear insertions and therefore includes back-to-back service).

The test is optimistic about the vehicle: it assumes a vehicle is available
at ``s_a`` when ``r_a`` is released, which matches how shareability graphs
are built in prior work (Santi et al., Alonso-Mora et al.).
"""

from __future__ import annotations

import math

from ..model.request import Request
from ..model.schedule import Schedule, Waypoint, WaypointKind
from ..network.shortest_path import DistanceOracle


#: The three stop orders above, as indices into ``(s_a, e_a, s_b, e_b)``.
_ORDERINGS = ((0, 2, 1, 3), (0, 2, 3, 1), (0, 1, 2, 3))


def _waypoints(first: Request, second: Request) -> tuple[Waypoint, Waypoint, Waypoint, Waypoint]:
    return (
        Waypoint(first, WaypointKind.PICKUP),
        Waypoint(first, WaypointKind.DROPOFF),
        Waypoint(second, WaypointKind.PICKUP),
        Waypoint(second, WaypointKind.DROPOFF),
    )


def pair_orderings(first: Request, second: Request) -> list[Schedule]:
    """The candidate joint schedules that start with ``first``'s pick-up."""
    waypoints = _waypoints(first, second)
    return [Schedule(waypoints[k] for k in order) for order in _ORDERINGS]


def best_pair_schedule(
    first: Request,
    second: Request,
    oracle: DistanceOracle,
    *,
    capacity: int | None = None,
) -> tuple[Schedule | None, float]:
    """Cheapest feasible joint schedule anchored at ``first``'s source.

    Returns ``(schedule, travel_cost)`` or ``(None, inf)`` when the two
    requests cannot share a trip in this orientation.  The vehicle starts
    empty at ``first``'s source when ``first`` is released, so with both
    parties fitting the seats only the deadlines can fail; each ordering is
    driven in ``Schedule.evaluate``'s arithmetic, ends before pricing a leg
    whose :meth:`~DistanceOracle.lower_bound` is already late, and only the
    winner is built.
    """
    seats = capacity if capacity is not None else first.riders + second.riders
    start = first.release_time
    if (
        first.riders + second.riders > seats
        or first.request_id == second.request_id
        or start > first.latest_pickup + 1e-9
    ):
        return None, math.inf
    cost, bound = oracle.cost, oracle.lower_bound
    # (node, earliest service, deadline plus tolerance) of s_a, e_a, s_b, e_b.
    stops = (
        (first.source, start, math.inf),
        (first.destination, -math.inf, first.deadline + 1e-9),
        (second.source, second.release_time, second.latest_pickup + 1e-9),
        (second.destination, -math.inf, second.deadline + 1e-9),
    )
    best_order = None
    best_cost = math.inf
    for order in _ORDERINGS:
        here, clock, travel = first.source, start, 0.0
        for k in order[1:]:
            node, release, due = stops[k]
            if clock + bound(here, node) > due:
                travel = math.inf
                break
            leg = cost(here, node)
            travel += leg
            clock += leg
            if clock < release:
                clock = release
            if clock > due:
                travel = math.inf
                break
            here = node
        if travel < best_cost:
            best_order, best_cost = order, travel
    if best_order is None:
        return None, math.inf
    waypoints = _waypoints(first, second)
    return Schedule(waypoints[k] for k in best_order), best_cost


def are_shareable(
    first: Request,
    second: Request,
    oracle: DistanceOracle,
    *,
    capacity: int | None = None,
) -> bool:
    """True when the two requests can share a vehicle in either orientation.

    Shareability is symmetric: the pair is checked with each request as the
    anchor (first pick-up) and the edge exists if either orientation admits a
    feasible joint schedule.
    """
    schedule, _ = best_pair_schedule(first, second, oracle, capacity=capacity)
    if schedule is not None:
        return True
    schedule, _ = best_pair_schedule(second, first, oracle, capacity=capacity)
    return schedule is not None
