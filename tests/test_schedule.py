"""Tests for schedules: feasibility constraints and buffer times."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ScheduleError
from repro.model.schedule import Schedule, Waypoint, WaypointKind


class TestStructure:
    def test_direct_schedule(self, make_line_request):
        request = make_line_request(1, 0, 3)
        schedule = Schedule.direct(request)
        assert len(schedule) == 2
        assert schedule.nodes() == [0, 3]
        assert schedule.request_ids() == {1}
        assert schedule.satisfies_order()

    def test_order_violations_detected(self, make_line_request):
        request = make_line_request(1, 0, 3)
        pickup = Waypoint(request, WaypointKind.PICKUP)
        dropoff = Waypoint(request, WaypointKind.DROPOFF)
        assert not Schedule((dropoff, pickup)).satisfies_order()
        assert not Schedule((pickup, pickup, dropoff)).satisfies_order()
        assert not Schedule((pickup,)).satisfies_order()

    def test_dropoff_only_means_onboard(self, make_line_request):
        request = make_line_request(1, 0, 3)
        schedule = Schedule((Waypoint(request, WaypointKind.DROPOFF),))
        assert schedule.satisfies_order()

    def test_requests_and_equality(self, make_line_request):
        a = make_line_request(1, 0, 2)
        b = make_line_request(2, 1, 3)
        schedule = Schedule.direct(a).with_insertion(b, 1, 2)
        assert {r.request_id for r in schedule.requests()} == {1, 2}
        assert schedule == Schedule(schedule.waypoints)
        assert hash(schedule) == hash(Schedule(schedule.waypoints))


class TestEvaluation:
    def test_direct_trip_cost(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 3)
        schedule = Schedule.direct(request)
        result = schedule.evaluate(line_oracle, origin=0, departure_time=0.0, capacity=3)
        assert result.feasible
        assert result.travel_cost == pytest.approx(30.0)
        assert result.arrival_times == (0.0, 30.0)

    def test_waits_for_release_time(self, make_line_request, line_oracle):
        request = make_line_request(1, 1, 3, release_time=50.0)
        schedule = Schedule.direct(request)
        result = schedule.evaluate(line_oracle, origin=0, departure_time=0.0, capacity=3)
        assert result.feasible
        # Arrives at the source after 10 s but must wait until t=50.
        assert result.arrival_times[0] == pytest.approx(50.0)
        assert result.arrival_times[1] == pytest.approx(70.0)

    def test_deadline_violation(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 2, gamma=1.2)  # deadline = 24
        schedule = Schedule.direct(request)
        # Starting far away blows the pick-up deadline immediately.
        late = schedule.evaluate(line_oracle, origin=4, departure_time=20.0, capacity=3)
        assert not late.feasible
        assert "deadline" in late.reason

    def test_capacity_violation(self, make_line_request, line_oracle):
        a = make_line_request(1, 0, 4, riders=2)
        b = make_line_request(2, 1, 3, riders=2)
        shared = Schedule.direct(a).with_insertion(b, 1, 2)
        tight = shared.evaluate(line_oracle, origin=0, departure_time=0.0, capacity=3)
        assert not tight.feasible
        assert "capacity" in tight.reason
        roomy = shared.evaluate(line_oracle, origin=0, departure_time=0.0, capacity=4)
        assert roomy.feasible

    def test_initial_load_counts_against_capacity(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 2, riders=2)
        schedule = Schedule.direct(request)
        result = schedule.evaluate(
            line_oracle, origin=0, departure_time=0.0, capacity=3, initial_load=2
        )
        assert not result.feasible

    def test_unreachable_waypoint(self, line_network, make_line_request):
        from repro.network.road_network import RoadNetwork
        from repro.network.shortest_path import DistanceOracle

        disconnected = RoadNetwork()
        disconnected.add_node(0, 0, 0)
        disconnected.add_node(1, 100, 0)
        oracle = DistanceOracle(disconnected)
        request = make_line_request(1, 0, 1)
        schedule = Schedule.direct(request)
        result = schedule.evaluate(oracle, origin=0, departure_time=0.0, capacity=3)
        assert not result.feasible
        assert math.isinf(result.travel_cost)

    def test_travel_cost_without_feasibility(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 3)
        schedule = Schedule.direct(request)
        assert schedule.travel_cost(line_oracle, origin=1) == pytest.approx(10.0 + 30.0)

    def test_empty_schedule(self, line_oracle):
        schedule = Schedule.empty()
        result = schedule.evaluate(line_oracle, origin=0, departure_time=0.0, capacity=1)
        assert result.feasible
        assert result.travel_cost == 0.0


class TestEditing:
    def test_with_insertion_positions(self, make_line_request):
        a = make_line_request(1, 0, 4)
        b = make_line_request(2, 1, 3)
        schedule = Schedule.direct(a)
        extended = schedule.with_insertion(b, 1, 2)
        assert extended.nodes() == [0, 1, 3, 4]
        assert len(schedule) == 2  # original untouched

    def test_with_insertion_invalid_positions(self, make_line_request):
        a = make_line_request(1, 0, 4)
        b = make_line_request(2, 1, 3)
        schedule = Schedule.direct(a)
        with pytest.raises(ScheduleError):
            schedule.with_insertion(b, 3, 4)
        with pytest.raises(ScheduleError):
            schedule.with_insertion(b, 1, 1)

    def test_extended(self, make_line_request):
        a = make_line_request(1, 0, 4)
        schedule = Schedule.empty().extended(Schedule.direct(a).waypoints)
        assert schedule == Schedule.direct(a)
