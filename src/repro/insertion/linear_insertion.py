"""Linear insertion: add a request to a schedule without reordering it.

This is the operator of Tong et al. [37] that the paper adopts for schedule
maintenance: try every pair of positions for the new pick-up and drop-off,
keep the relative order of the existing stops, and return the feasible
placement with the smallest increase in total travel cost.  The operator is
optimal for a schedule of at most one existing request and a good local
heuristic beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterable
from math import inf

from ..model.request import Request
from ..model.schedule import Schedule
from ..model.vehicle import RouteState
from ..network.shortest_path import DistanceOracle


@dataclass(frozen=True)
class InsertionOutcome:
    """Result of attempting to insert a request into a route.

    ``delta_cost`` is the increase in total travel time over the route's
    current schedule; it is ``inf`` when no feasible placement exists.
    """

    feasible: bool
    delta_cost: float
    schedule: Schedule
    pickup_position: int = -1
    dropoff_position: int = -1
    total_cost: float = inf

    @classmethod
    def infeasible(cls, schedule: Schedule) -> "InsertionOutcome":
        """The canonical "no feasible placement" outcome."""
        return cls(False, inf, schedule)


def base_route_cost(route: RouteState, oracle: DistanceOracle) -> float:
    """Travel cost of the route's current schedule from its origin."""
    return route.profile(oracle).travel_cost


def best_insertion(
    route: RouteState,
    request: Request,
    oracle: DistanceOracle,
) -> InsertionOutcome:
    """Find the cheapest feasible insertion of ``request`` into ``route``.

    Every pair of positions ``(i, j)`` with ``i <= j`` is considered, where
    ``i`` is the index of the pick-up in the current schedule and the
    drop-off follows at index ``j`` of the extended schedule.  Positions
    before ``route.min_insert_position`` are skipped because the vehicle has
    already committed to its next stop.

    The scan over pick-up positions ends at the first one whose
    straight-line bound (:meth:`DistanceOracle.lower_bound`) to the pick-up
    is late, before that leg is priced.  For each other pick-up position the
    route is walked forward once from the route profile's state at that
    position; the walk ends at the first stop
    the detour makes late or overfull, since every later drop-off position
    drives through it too.  A drop-off position is settled by comparing the
    arrival at the stop behind it with that stop's slack
    (:attr:`RouteProfile.latest`).  Every time is on the time grid, so each
    comparison is exact and the outcome equals evaluating every extended
    schedule from scratch.

    The outcome is kept on the snapshot (:meth:`RouteState.outcomes`): a
    request offered again to an unchanged plan is answered from there.
    """
    schedule = route.schedule
    cost = oracle.cost
    source, destination = request.source, request.destination
    riders, release = request.riders, request.release_time
    pickup_due, dropoff_due = request.latest_pickup, request.deadline
    capacity = route.capacity
    n = len(schedule)
    if n == 0:
        # Idle vehicle: one candidate, no profile.
        to_pickup = cost(route.origin, source)
        clock = route.departure_time + to_pickup
        if clock < release:
            clock = release
        if clock > pickup_due or not 0 <= route.onboard <= capacity - riders:
            return route.refusal(oracle)
        trip = cost(source, destination)
        total = to_pickup + trip
        if clock + trip > dropoff_due or total == inf:
            return route.refusal(oracle)
        return InsertionOutcome(True, total, Schedule.direct(request), 0, 1, total)

    outcomes = route.outcomes(oracle)
    outcome = outcomes.get(request)
    if outcome is not None:
        return outcome
    (
        legs, releases, due, node_at, clock_at, load_at, travel_at,
        open_until, latest, request_ids,
    ) = route.profile(oracle)
    if request.request_id in request_ids:
        return route.refusal(oracle)
    base_cost = travel_at[n]
    best_delta = best_total = inf
    best_pickup = best_dropoff = -1
    bound = oracle.lower_bound
    for i in range(route.min_insert_position, min(n, open_until) + 1):
        # ``clock_at[i] + bound(node_at[i], source)`` never falls as ``i``
        # grows (triangle inequality), so no later pick-up is on time either.
        if clock_at[i] + bound(node_at[i], source) > pickup_due:
            break
        leg = cost(node_at[i], source)
        clock = clock_at[i] + leg
        if clock < release:
            clock = release
        load = load_at[i] + riders
        if clock > pickup_due or not 0 <= load <= capacity:
            continue
        travel = travel_at[i] + leg
        here = source
        for d in range(i, n + 1):
            # Drop off before stop d, i.e. at index d + 1 of the extended
            # schedule; the walk stands at ``here`` having serviced i .. d-1.
            leg = cost(here, destination)
            arrival = clock + leg
            if arrival <= dropoff_due and 0 <= load - riders:
                total = travel + leg
                if d < n:
                    leg = cost(destination, node_at[d + 1])
                    arrival += leg
                    if arrival > latest[d]:
                        total = inf
                    else:
                        total += leg
                        for k in range(d + 1, n):
                            total += legs[k]
                # An unreachable leg anywhere makes ``total`` infinite (or the
                # difference NaN), which never beats ``best_delta``.
                if total - base_cost < best_delta:
                    best_delta, best_total = total - base_cost, total
                    best_pickup, best_dropoff = i, d + 1
            if d == n:
                break
            # Drive on over stop d with the new rider aboard.
            leg = legs[d] if d > i else cost(source, node_at[d + 1])
            clock += leg
            if clock < releases[d]:
                clock = releases[d]
            load = load_at[d + 1] + riders
            if clock > due[d] or not 0 <= load <= capacity:
                break
            travel += leg
            here = node_at[d + 1]
    if best_pickup < 0:
        outcome = route.refusal(oracle)
    else:
        outcome = InsertionOutcome(
            True,
            best_delta,
            schedule.with_insertion(request, best_pickup, best_dropoff),
            best_pickup,
            best_dropoff,
            best_total,
        )
    outcomes[request] = outcome
    return outcome


def insert_sequence(
    route: RouteState,
    requests: Iterable[Request],
    oracle: DistanceOracle,
) -> InsertionOutcome:
    """Insert several requests one by one with linear insertion.

    The requests are processed in the given order; each one is inserted into
    the schedule produced by the previous insertions.  Returns the combined
    outcome: infeasible as soon as any single insertion fails.  This is the
    primitive used by the grouping algorithm, which orders the sequence by
    ascending shareability (Section IV-A).
    """
    current = route
    total_delta = 0.0
    for request in requests:
        outcome = best_insertion(current, request, oracle)
        if not outcome.feasible:
            return InsertionOutcome.infeasible(route.schedule)
        total_delta += outcome.delta_cost
        current = replace(current, schedule=outcome.schedule)
    return InsertionOutcome(
        feasible=True,
        delta_cost=total_delta,
        schedule=current.schedule,
        total_cost=base_route_cost(route, oracle) + total_delta,
    )
