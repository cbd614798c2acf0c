"""Tests for the linear insertion operator."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.insertion import linear_insertion
from repro.insertion.linear_insertion import (
    InsertionOutcome,
    base_route_cost,
    best_insertion,
    insert_sequence,
)
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState
from repro.network.generators import grid_city
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import DistanceOracle

from test_properties import KineticTreeScheduler


def _route(location: int, *, time: float = 0.0, capacity: int = 3,
           schedule: Schedule | None = None, onboard: int = 0,
           min_insert: int = 0) -> RouteState:
    return RouteState(
        vehicle_id=1,
        origin=location,
        departure_time=time,
        schedule=schedule or Schedule.empty(),
        capacity=capacity,
        onboard=onboard,
        min_insert_position=min_insert,
    )


class TestSingleInsertion:
    def test_empty_schedule_gets_direct_trip(self, make_line_request, line_oracle):
        request = make_line_request(1, 1, 3)
        outcome = best_insertion(_route(0), request, line_oracle)
        assert outcome.feasible
        assert outcome.schedule.nodes() == [1, 3]
        # 10 s deadhead to the source plus the 20 s trip.
        assert outcome.delta_cost == pytest.approx(30.0)
        assert outcome.total_cost == pytest.approx(30.0)

    def test_infeasible_when_pickup_unreachable_in_time(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 1, gamma=1.2, max_wait=5.0)
        outcome = best_insertion(_route(4, time=0.0), request, line_oracle)
        assert not outcome.feasible
        assert math.isinf(outcome.delta_cost)

    def test_optimal_for_two_requests(self, make_request, oracle):
        """Linear insertion is optimal when the schedule holds one request."""
        kinetic = KineticTreeScheduler(oracle)
        first = make_request(1, 0, 14)
        second = make_request(2, 1, 15)
        route = _route(0)
        first_outcome = best_insertion(route, first, oracle)
        assert first_outcome.feasible
        loaded = _route(0, schedule=first_outcome.schedule)
        second_outcome = best_insertion(loaded, second, oracle)
        assert second_outcome.feasible
        optimal = kinetic.optimal_cost(route, [first, second])
        assert second_outcome.total_cost == pytest.approx(optimal)

    def test_respects_min_insert_position(self, make_line_request, line_oracle):
        committed = make_line_request(1, 1, 3, gamma=2.0, max_wait=1000.0)
        base = Schedule.direct(committed)
        newcomer = make_line_request(2, 0, 1, max_wait=1000.0, gamma=3.0)
        free = best_insertion(_route(0, schedule=base), newcomer, line_oracle)
        locked = best_insertion(
            _route(0, schedule=base, min_insert=1), newcomer, line_oracle
        )
        assert free.feasible
        assert free.pickup_position == 0
        # With the first stop committed the pick-up cannot go before it.
        if locked.feasible:
            assert locked.pickup_position >= 1
        assert locked.delta_cost >= free.delta_cost - 1e-9

    def test_capacity_blocks_overlapping_riders(self, make_line_request, line_oracle):
        a = make_line_request(1, 0, 4, riders=3)
        base = best_insertion(_route(0, capacity=3), a, line_oracle).schedule
        b = make_line_request(2, 1, 3, riders=1)
        outcome = best_insertion(_route(0, capacity=3, schedule=base), b, line_oracle)
        # The only feasible placements must avoid carrying both at once; with
        # such tight deadlines there is none.
        if outcome.feasible:
            evaluation = outcome.schedule.evaluate(
                line_oracle, 0, 0.0, capacity=3, initial_load=0
            )
            assert evaluation.feasible

    def test_delta_cost_matches_schedule_difference(self, make_request, oracle):
        first = make_request(1, 0, 10)
        second = make_request(2, 2, 20)
        route = _route(0)
        outcome1 = best_insertion(route, first, oracle)
        route2 = _route(0, schedule=outcome1.schedule)
        outcome2 = best_insertion(route2, second, oracle)
        assert outcome2.total_cost == pytest.approx(
            base_route_cost(route2, oracle) + outcome2.delta_cost
        )

    def test_infeasible_outcome_factory(self):
        outcome = InsertionOutcome.infeasible(Schedule.empty())
        assert not outcome.feasible
        assert math.isinf(outcome.delta_cost)


class _CountingOracle:
    """Counts the ``cost`` calls it forwards; its straight-line bound refuses
    nothing, so every leg the kernel considers is priced."""

    def __init__(self, oracle) -> None:
        self._oracle = oracle
        self.calls = 0

    @property
    def generation(self) -> int:
        return self._oracle.generation

    def cost(self, source: int, target: int) -> float:
        self.calls += 1
        return self._oracle.cost(source, target)

    def lower_bound(self, source: int, target: int) -> float:
        return 0.0


class _BoundedCountingOracle(_CountingOracle):
    """A :class:`_CountingOracle` that forwards the straight-line bound."""

    def lower_bound(self, source: int, target: int) -> float:
        return self._oracle.lower_bound(source, target)


class TestKernelWork:
    """The kernel's oracle budget and the lifetime of its cached profile."""

    @staticmethod
    def _chain(make_request, stops: int) -> Schedule:
        """``stops`` way-points of back-to-back trips along the grid's first row."""
        schedule = Schedule.empty()
        for rid in range(stops // 2):
            member = make_request(10 + rid, rid, rid + 1, gamma=50.0, max_wait=5000.0)
            schedule = schedule.extended(Schedule.direct(member).waypoints)
        return schedule

    @pytest.mark.parametrize("stops", [0, 2, 4, 6, 8])
    def test_oracle_calls_quadratic_in_route_length(self, make_request, oracle, stops):
        counting = _CountingOracle(oracle)
        route = _route(0, capacity=9, schedule=self._chain(make_request, stops))
        request = make_request(1, 6, 8, gamma=50.0, max_wait=5000.0)
        outcome = best_insertion(route, request, counting)
        assert outcome.feasible
        assert counting.calls <= 3 * (stops + 1) * (stops + 2)

    @pytest.mark.parametrize("stops", [0, 2, 4, 6, 8])
    def test_oracle_calls_linear_when_every_pickup_is_late(self, make_request, oracle, stops):
        counting = _CountingOracle(oracle)
        route = _route(0, time=100.0, capacity=9, schedule=self._chain(make_request, stops))
        request = make_request(1, 6, 8, release_time=0.0, max_wait=10.0)
        assert not best_insertion(route, request, counting).feasible
        assert counting.calls <= 2 * stops + 2
        # The route is priced once per snapshot; every pick-up clock is late
        # before a leg is added, so another request costs nothing, and the
        # same one again nothing (an idle route keeps no outcomes: it is one
        # look-up either way).
        counting.calls = 0
        other = replace(request, request_id=2)
        assert not best_insertion(route, other, counting).feasible
        assert counting.calls == (0 if stops else 1)
        counting.calls = 0
        assert not best_insertion(route, request, counting).feasible
        assert counting.calls == (0 if stops else 1)

    @pytest.mark.parametrize("stops", [2, 4, 6, 8])
    def test_no_oracle_calls_when_every_pickup_is_late_by_the_bound(
        self, make_request, oracle, stops
    ):
        """Every pick-up position is on time by its clock alone, but not
        after the straight-line leg to the far corner at the top speed."""
        counting = _BoundedCountingOracle(oracle)
        route = _route(0, capacity=9, schedule=self._chain(make_request, stops))
        request = make_request(1, 35, 30, gamma=50.0, max_wait=40.0)
        profile = route.profile(counting)
        due = request.latest_pickup
        assert all(
            profile.clock_at[i] <= due < profile.clock_at[i] + oracle.lower_bound(
                profile.node_at[i], request.source
            )
            for i in range(stops + 1)
        )
        counting.calls = 0
        assert best_insertion(route, request, counting) == route.refusal(counting)
        assert counting.calls == 0
        assert best_insertion(route, request, _CountingOracle(oracle)) == route.refusal(counting)

    def test_profile_is_not_reused_under_another_oracle(self, make_request, grid_network, oracle):
        slow_city = grid_city(6, 6, block_length=100.0, speed=2.0, perturbation=0.0, seed=1)
        slow = DistanceOracle(slow_city)
        first = make_request(1, 0, 3, gamma=3.0, max_wait=300.0)
        route = _route(0, schedule=Schedule.direct(first))
        newcomer = make_request(2, 1, 2, gamma=3.0, max_wait=300.0)
        fast_outcome = best_insertion(route, newcomer, oracle)
        slow_outcome = best_insertion(route, newcomer, slow)
        assert fast_outcome.feasible
        fresh = _route(0, schedule=Schedule.direct(first))
        assert slow_outcome == best_insertion(fresh, newcomer, slow)
        assert slow_outcome != fast_outcome
        assert best_insertion(route, newcomer, oracle) == fast_outcome

    @pytest.mark.parametrize("nudge, feasible", [(5e-7, True), (-5e-7, False)])
    def test_arrival_within_the_margin_is_settled_exactly(
        self, make_line_request, line_oracle, monkeypatch, nudge, feasible
    ):
        """An onboard rider reaches node 4 at t=40; a deadline half a
        microsecond either side of that is inside the slack margin, where
        only the exact walk of the tail decides."""
        exact_walks = []
        monkeypatch.setattr(
            linear_insertion, "_tail_on_time",
            lambda *args, walk=linear_insertion._tail_on_time: (
                exact_walks.append(args[:2]) or walk(*args)
            ),
        )
        rider = replace(make_line_request(1, 0, 4, max_wait=1000.0), deadline=40.0 + nudge)
        dropoff_only = Schedule(Schedule.direct(rider).waypoints[1:])
        newcomer = make_line_request(2, 1, 3, gamma=5.0, max_wait=1000.0)
        route = _route(0, schedule=dropoff_only, onboard=1)
        outcome = best_insertion(route, newcomer, line_oracle)
        assert exact_walks == [(40.0, 0)]
        assert outcome.feasible is feasible
        if feasible:
            assert outcome.schedule.nodes() == [1, 3, 4]
            assert outcome.delta_cost == 0.0


    @pytest.mark.parametrize("nudge, feasible", [(5e-7, True), (-5e-7, False)])
    def test_release_within_the_margin_of_the_slack_is_settled_exactly(
        self, make_line_request, line_oracle, nudge, feasible
    ):
        """Waiting at node 1 until t=20 brings the onboard rider to node 4 at
        t=50, half a microsecond from the deadline: no arrival, however
        early, may skip the exact walk."""
        rider = replace(make_line_request(1, 0, 4), deadline=50.0 + nudge)
        waiting = make_line_request(2, 1, 2, release_time=20.0, gamma=9.0, max_wait=1000.0)
        schedule = Schedule((*Schedule.direct(waiting).waypoints,
                             Schedule.direct(rider).waypoints[1]))
        route = _route(0, schedule=schedule, onboard=1)
        assert route.profile(line_oracle).safe_by[0] == -math.inf
        newcomer = make_line_request(3, 0, 1, gamma=9.0, max_wait=1000.0)
        assert best_insertion(route, newcomer, line_oracle).feasible is feasible

    def test_unreachable_leg_without_deadlines_is_infeasible(self):
        """Open-ended requests (no deadline, no waiting limit) leave the
        infinite leg itself as the only sign of an unreachable stop."""
        one_way = RoadNetwork()
        for node in range(3):
            one_way.add_node(node, node * 100.0, 0.0)
        one_way.add_edge(0, 1, 10.0)
        one_way.add_edge(1, 2, 10.0)
        oracle = DistanceOracle(one_way)
        back = Request(release_time=0.0, request_id=1, source=1, destination=0)
        assert not best_insertion(_route(0), back, oracle).feasible
        forth = Request(release_time=0.0, request_id=2, source=1, destination=2)
        loaded = best_insertion(_route(0), forth, oracle)
        assert loaded.feasible and loaded.total_cost == 20.0
        assert not best_insertion(_route(0, schedule=loaded.schedule), back, oracle).feasible

    def test_tail_made_late_by_its_own_waiting_takes_nothing(self, make_line_request, line_oracle):
        """The route waits at node 1 until t=95 and so misses the onboard
        rider's deadline at node 4: however early a detour ends, the stops
        behind it stay late, which the slack must say without a walk."""
        rider = replace(make_line_request(1, 0, 4), deadline=100.0)
        waiting = make_line_request(2, 1, 2, release_time=95.0, gamma=9.0, max_wait=1000.0)
        schedule = Schedule((*Schedule.direct(waiting).waypoints,
                             Schedule.direct(rider).waypoints[1]))
        route = _route(0, schedule=schedule, onboard=1)
        profile = route.profile(line_oracle)
        assert profile.open_until == 2
        assert profile.late_after[0] == -math.inf
        assert profile.late_after[1:] == pytest.approx([80.0, 100.0], abs=1e-5)
        newcomer = make_line_request(3, 0, 1, gamma=9.0, max_wait=1000.0)
        assert not best_insertion(route, newcomer, line_oracle).feasible


class TestInsertSequence:
    def test_sequence_of_two(self, make_request, oracle):
        a = make_request(1, 0, 14)
        b = make_request(2, 1, 15)
        outcome = insert_sequence(_route(0), [a, b], oracle)
        assert outcome.feasible
        assert outcome.schedule.request_ids() == {1, 2}
        evaluation = outcome.schedule.evaluate(oracle, 0, 0.0, capacity=3)
        assert evaluation.feasible
        assert outcome.total_cost == pytest.approx(evaluation.travel_cost)

    def test_sequence_fails_fast_on_infeasible_member(self, make_line_request, line_oracle):
        good = make_line_request(1, 0, 2)
        impossible = make_line_request(2, 4, 3, gamma=1.2, max_wait=1.0)
        outcome = insert_sequence(_route(0), [good, impossible], line_oracle)
        assert not outcome.feasible

    def test_empty_sequence_is_identity(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 2)
        base = Schedule.direct(request)
        outcome = insert_sequence(_route(0, schedule=base), [], line_oracle)
        assert outcome.feasible
        assert outcome.delta_cost == 0.0
        assert outcome.schedule == base
