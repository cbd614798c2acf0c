"""Tests for the kinetic-tree exhaustive scheduler."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.model.schedule import Schedule, Waypoint, WaypointKind
from repro.model.vehicle import RouteState

from test_properties import KineticTreeScheduler


def _route(location: int, *, capacity: int = 4, schedule: Schedule | None = None,
           min_insert: int = 0, time: float = 0.0) -> RouteState:
    return RouteState(
        vehicle_id=7,
        origin=location,
        departure_time=time,
        schedule=schedule or Schedule.empty(),
        capacity=capacity,
        onboard=0,
        min_insert_position=min_insert,
    )


def _brute_force_optimum(route, requests, oracle) -> float:
    """Enumerate every stop permutation explicitly (reference implementation)."""
    stops = []
    for request in requests:
        stops.append(Waypoint(request, WaypointKind.PICKUP))
        stops.append(Waypoint(request, WaypointKind.DROPOFF))
    best = math.inf
    for permutation in itertools.permutations(stops):
        schedule = Schedule(permutation)
        if not schedule.satisfies_order():
            continue
        result = schedule.evaluate(
            oracle, route.origin, route.departure_time,
            capacity=route.capacity, initial_load=route.onboard,
        )
        if result.feasible:
            best = min(best, result.travel_cost)
    return best


class TestOptimality:
    def test_matches_brute_force_two_requests(self, make_request, oracle):
        requests = [make_request(1, 0, 14), make_request(2, 1, 20)]
        scheduler = KineticTreeScheduler(oracle)
        route = _route(0)
        expected = _brute_force_optimum(route, requests, oracle)
        assert scheduler.optimal_cost(route, requests) == pytest.approx(expected)

    def test_matches_brute_force_three_requests(self, make_request, oracle):
        requests = [
            make_request(1, 0, 14, max_wait=400.0),
            make_request(2, 1, 15, max_wait=400.0),
            make_request(3, 6, 21, max_wait=400.0),
        ]
        scheduler = KineticTreeScheduler(oracle)
        route = _route(0, capacity=6)
        expected = _brute_force_optimum(route, requests, oracle)
        result = scheduler.optimal_cost(route, requests)
        assert result == pytest.approx(expected)

    def test_returns_none_when_infeasible(self, make_line_request, line_oracle):
        impossible = make_line_request(1, 4, 0, gamma=1.1, max_wait=1.0)
        scheduler = KineticTreeScheduler(line_oracle)
        assert scheduler.optimal_schedule(_route(0), [impossible]) is None
        assert math.isinf(scheduler.optimal_cost(_route(0), [impossible]))

    def test_schedule_is_feasible_and_complete(self, make_request, oracle):
        requests = [
            make_request(1, 3, 18, gamma=2.0, max_wait=400.0),
            make_request(2, 4, 22, gamma=2.0, max_wait=400.0),
        ]
        scheduler = KineticTreeScheduler(oracle)
        schedule = scheduler.optimal_schedule(_route(2), requests)
        assert schedule is not None
        assert schedule.request_ids() == {1, 2}
        evaluation = schedule.evaluate(oracle, 2, 0.0, capacity=4)
        assert evaluation.feasible

    def test_never_worse_than_linear_insertion(self, make_request, oracle):
        from repro.insertion.linear_insertion import insert_sequence

        requests = [make_request(i, i, 20 + i, max_wait=400.0) for i in range(1, 4)]
        route = _route(0, capacity=6)
        scheduler = KineticTreeScheduler(oracle)
        optimal = scheduler.optimal_cost(route, requests)
        linear = insert_sequence(route, requests, oracle)
        if linear.feasible:
            assert optimal <= linear.total_cost + 1e-9


class TestConstraints:
    def test_committed_stop_stays_first(self, make_line_request, line_oracle):
        committed = make_line_request(1, 1, 3, max_wait=1000.0, gamma=2.0)
        base = Schedule.direct(committed)
        newcomer = make_line_request(2, 3, 4, release_time=20.0,
                                     max_wait=1000.0, gamma=3.0)
        scheduler = KineticTreeScheduler(line_oracle)
        schedule = scheduler.optimal_schedule(
            _route(0, schedule=base, min_insert=1), [newcomer]
        )
        assert schedule is not None
        assert schedule[0].request.request_id == 1
        assert schedule[0].kind is WaypointKind.PICKUP

    def test_empty_input_returns_empty_schedule(self, oracle):
        scheduler = KineticTreeScheduler(oracle)
        assert scheduler.optimal_schedule(_route(0), []) == Schedule.empty()

    def test_max_stops_guard(self, make_request, oracle):
        scheduler = KineticTreeScheduler(oracle, max_stops=4)
        requests = [make_request(i, 0, 10 + i) for i in range(1, 5)]
        with pytest.raises(ValueError):
            scheduler.optimal_schedule(_route(0), requests)
