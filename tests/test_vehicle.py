"""Tests for vehicle state, movement and schedule assignment."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ScheduleError
from repro.insertion.linear_insertion import best_insertion
from repro.model.schedule import Schedule
from repro.model.vehicle import Vehicle
from repro.network.shortest_path import DistanceOracle
from repro.numeric import TIME_GRID


class TestRouteState:
    def test_idle_route_state(self):
        vehicle = Vehicle(vehicle_id=1, location=3, capacity=4)
        state = vehicle.route_state(current_time=25.0)
        assert state.origin == 3
        assert state.departure_time == 25.0
        assert state.capacity == 4
        assert state.onboard == 0
        assert state.min_insert_position == 0
        assert state.free_seats == 4

    def test_in_transit_route_state_commits_first_stop(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 2, 4)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        # Start driving toward the pick-up but do not reach it yet.
        vehicle.advance_to(5.0, line_oracle)
        state = vehicle.route_state(current_time=5.0)
        assert state.min_insert_position == 1
        assert state.origin == 0
        assert len(state.schedule) == 2


class TestPlanSnapshotLifetime:
    """The snapshot, and what was derived from it, lasts as long as the plan."""

    @staticmethod
    def _driving(make_line_request, line_oracle) -> Vehicle:
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 3, 4, gamma=9.0, max_wait=1000.0)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        vehicle.advance_to(3.0, line_oracle)
        return vehicle

    def test_driving_vehicle_hands_out_one_snapshot_per_leg(self, make_line_request, line_oracle):
        vehicle = self._driving(make_line_request, line_oracle)
        first = vehicle.route_state(3.0)
        vehicle.advance_to(6.0, line_oracle)
        assert vehicle.route_state(6.0) is first
        vehicle.advance_to(31.0, line_oracle)  # picks up at node 3, drives on
        second = vehicle.route_state(31.0)
        assert second is not first
        assert (second.origin, second.departure_time, second.onboard) == (3, 30.0, 1)
        assert vehicle.route_state(33.0) is second

    def test_new_schedule_ends_the_snapshot(self, make_line_request, line_oracle):
        vehicle = self._driving(make_line_request, line_oracle)
        first = vehicle.route_state(3.0)
        newcomer = make_line_request(2, 3, 4, gamma=9.0, max_wait=1000.0)
        outcome = best_insertion(first, newcomer, line_oracle)
        vehicle.assign_schedule(outcome.schedule, [newcomer], current_time=3.0)
        second = vehicle.route_state(3.0)
        assert second is not first and second.schedule is outcome.schedule
        # Equal stops in a new schedule object are a new plan as well.
        vehicle.assign_schedule(Schedule(outcome.schedule.waypoints), [], current_time=3.0)
        assert vehicle.route_state(3.0) is not second

    @pytest.mark.parametrize("field, value", [("onboard", 1), ("capacity", 5), ("location", 1)])
    def test_any_field_written_from_outside_ends_the_snapshot(
        self, make_line_request, line_oracle, field, value
    ):
        vehicle = self._driving(make_line_request, line_oracle)
        first = vehicle.route_state(3.0)
        setattr(vehicle, field, value)
        fresh = vehicle.route_state(3.0)
        assert fresh is not first
        assert getattr(fresh, "origin" if field == "location" else field) == value

    def test_idle_vehicle_gets_a_snapshot_per_call(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=2)
        assert vehicle.route_state(5.0) is not vehicle.route_state(5.0)
        assert vehicle.route_state(8.0).departure_time == 8.0
        # Assigned but not yet under way: still planned from the tick time.
        request = make_line_request(1, 3, 4, gamma=9.0, max_wait=1000.0)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=8.0)
        assert vehicle.route_state(9.0).departure_time == 9.0
        assert vehicle.route_state(9.0).min_insert_position == 0

    def test_re_offered_request_is_answered_from_the_snapshot(self, make_line_request, line_oracle):
        vehicle = self._driving(make_line_request, line_oracle)
        newcomer = make_line_request(2, 3, 4, gamma=9.0, max_wait=1000.0)
        first = best_insertion(vehicle.route_state(3.0), newcomer, line_oracle)
        vehicle.advance_to(6.0, line_oracle)
        queries = line_oracle.stats.queries
        assert best_insertion(vehicle.route_state(6.0), newcomer, line_oracle) is first
        assert line_oracle.stats.queries == queries
        assert vehicle.route_state(6.0).outcomes(line_oracle) == {newcomer: first}
        # A new generation of the oracle starts the snapshot's tables over.
        line_oracle.clear_cache()
        assert vehicle.route_state(6.0).outcomes(line_oracle) == {}
        again = best_insertion(vehicle.route_state(6.0), newcomer, line_oracle)
        assert again == first and again is not first


class TestReposition:
    def test_relocation_is_committed_and_charged(self):
        vehicle = Vehicle(vehicle_id=1, location=0)
        vehicle.reposition(3, travel_time=30.0, now=10.0)
        assert vehicle.location == 3
        assert vehicle.total_travel_time == 30.0
        state = vehicle.route_state(current_time=12.0)
        # Not available before it (virtually) arrives.
        assert (state.origin, state.departure_time) == (3, 40.0)
        assert vehicle.route_state(current_time=50.0).departure_time == 50.0

    def test_clock_never_moves_backwards(self, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0)
        vehicle.advance_to(100.0, line_oracle)
        vehicle.reposition(1, travel_time=10.0, now=20.0)
        assert vehicle.route_state(current_time=20.0).departure_time == 110.0

    def test_busy_vehicle_cannot_be_repositioned(self, make_line_request):
        request = make_line_request(1, 1, 3)
        vehicle = Vehicle(vehicle_id=1, location=0, schedule=Schedule.direct(request))
        with pytest.raises(ScheduleError):
            vehicle.reposition(4, travel_time=40.0, now=0.0)
        assert vehicle.location == 0 and vehicle.total_travel_time == 0.0


class TestAssignment:
    def test_assign_registers_requests(self, make_line_request):
        vehicle = Vehicle(vehicle_id=1, location=0)
        request = make_line_request(1, 1, 3)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=2.0)
        assert vehicle.assigned_request_ids == {1}
        assert not vehicle.is_idle

    def test_assign_must_cover_new_requests(self, make_line_request):
        vehicle = Vehicle(vehicle_id=1, location=0)
        request = make_line_request(1, 1, 3)
        with pytest.raises(ScheduleError):
            vehicle.assign_schedule(Schedule.empty(), [request], current_time=0.0)

    def test_assign_cannot_drop_committed_stop_mid_leg(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0)
        first = make_line_request(1, 2, 4)
        vehicle.assign_schedule(Schedule.direct(first), [first], current_time=0.0)
        vehicle.advance_to(5.0, line_oracle)
        second = make_line_request(2, 1, 3)
        reordered = Schedule.direct(second).with_insertion(first, 1, 2)
        with pytest.raises(ScheduleError):
            vehicle.assign_schedule(reordered, [second], current_time=5.0)


    def test_assign_cannot_drop_onboard_rider(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0)
        rider = make_line_request(1, 0, 4)
        vehicle.assign_schedule(Schedule.direct(rider), [rider], current_time=0.0)
        vehicle.advance_to(5.0, line_oracle)
        assert vehicle.onboard == 1
        # The rider is in the car; a schedule without the drop-off loses them.
        newcomer = make_line_request(2, 1, 3)
        with pytest.raises(ScheduleError, match="drops active requests"):
            vehicle.assign_schedule(Schedule.direct(newcomer), [newcomer], current_time=5.0)

    def test_assign_cannot_drop_waiting_request(self, make_line_request):
        vehicle = Vehicle(vehicle_id=1, location=0)
        waiting = make_line_request(1, 2, 4)
        vehicle.assign_schedule(Schedule.direct(waiting), [waiting], current_time=0.0)
        newcomer = make_line_request(2, 1, 3)
        with pytest.raises(ScheduleError, match="drops active requests"):
            vehicle.assign_schedule(Schedule.direct(newcomer), [newcomer], current_time=0.0)
        assert vehicle.assigned_request_ids == {1}

    def test_assign_extends_existing_schedule(self, make_line_request):
        vehicle = Vehicle(vehicle_id=1, location=0)
        first = make_line_request(1, 0, 4)
        vehicle.assign_schedule(Schedule.direct(first), [first], current_time=0.0)
        second = make_line_request(2, 1, 3)
        extended = Schedule.direct(first).with_insertion(second, 1, 2)
        vehicle.assign_schedule(extended, [second], current_time=0.0)
        assert vehicle.assigned_request_ids == {1, 2}
        assert vehicle.schedule == extended


class TestRouteProfile:
    """Definition 3's buffer times, as the slack arrays of the priced route."""

    @staticmethod
    def _buffers(state, oracle):
        profile = state.profile(oracle)
        # Latest arrival that keeps the rest of the route on time, minus the
        # arrival the route is driven with.
        return [late - arrival for late, arrival in zip(profile.latest, profile.clock_at[1:])]

    def test_slack_definition3(self, make_line_request, line_oracle):
        request = make_line_request(1, 0, 3, gamma=2.0, max_wait=1000.0)
        vehicle = Vehicle(vehicle_id=1, location=0, schedule=Schedule.direct(request))
        buffers = self._buffers(vehicle.route_state(0.0), line_oracle)
        # Drop-off arrives at t=30 with deadline 60 -> slack 30; the pick-up's
        # buffer is bounded by the drop-off slack.
        assert buffers == [30.0, 30.0]

    def test_slack_non_increasing_towards_front(self, make_line_request, line_oracle):
        a = make_line_request(1, 0, 4, gamma=1.8, max_wait=500.0)
        b = make_line_request(2, 1, 3, gamma=1.8, max_wait=500.0)
        schedule = Schedule.direct(a).with_insertion(b, 1, 2)
        vehicle = Vehicle(vehicle_id=1, location=0, schedule=schedule)
        state = vehicle.route_state(0.0)
        buffers = self._buffers(state, line_oracle)
        for earlier, later in zip(buffers, buffers[1:]):
            assert earlier <= later
        profile = state.profile(line_oracle)
        assert profile.open_until == len(schedule)
        assert profile.travel_cost == schedule.travel_cost(line_oracle, 0)

    @staticmethod
    def _tail_on_time(profile, k, arrival):
        """Walk stops ``k ..`` from an arrival at stop ``k``."""
        for stop in range(k, len(profile.due)):
            if stop > k:
                arrival += profile.legs[stop]
            arrival = max(arrival, profile.releases[stop])
            if arrival > profile.due[stop]:
                return False
        return True

    @pytest.mark.parametrize("release", [0.0, 15.0, 25.0])
    def test_an_arrival_at_the_slack_is_on_time_and_one_grid_step_later_is_late(
        self, make_line_request, line_oracle, release
    ):
        """Definition 3 on the grid: ``latest[k]`` is the last on-time arrival
        at stop ``k``, with or without a release that binds it."""
        a = make_line_request(1, 0, 4, gamma=1.8, max_wait=500.0)
        b = make_line_request(2, 1, 3, release, gamma=2.0, max_wait=500.0)
        schedule = Schedule.direct(a).with_insertion(b, 1, 2)
        profile = Vehicle(vehicle_id=1, location=0, schedule=schedule).route_state(0.0).profile(
            line_oracle
        )
        assert profile.open_until == len(schedule)
        for k, latest in enumerate(profile.latest):
            assert profile.clock_at[k + 1] <= latest < math.inf
            assert self._tail_on_time(profile, k, latest)
            assert not self._tail_on_time(profile, k, latest + TIME_GRID)

    def test_profile_is_cached_per_oracle(self, make_line_request, line_network, line_oracle):
        request = make_line_request(1, 0, 3)
        vehicle = Vehicle(vehicle_id=1, location=0, schedule=Schedule.direct(request))
        state = vehicle.route_state(0.0)
        assert state.profile(line_oracle) is state.profile(line_oracle)
        other = DistanceOracle(line_network)
        assert state.profile(other) is not state.profile(line_oracle)
        # The cache takes no part in the snapshot's identity.
        assert state == vehicle.route_state(0.0)


class TestMovement:
    def test_advance_completes_trip(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 1, 3, release_time=0.0)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        completed = vehicle.advance_to(100.0, line_oracle)
        assert [r.request_id for r, _ in completed] == [1]
        assert vehicle.is_idle
        assert vehicle.location == 3
        assert vehicle.onboard == 0
        # 10 s to reach node 1 plus 20 s to node 3.
        assert vehicle.total_travel_time == pytest.approx(30.0)

    def test_partial_advance_keeps_leg_in_progress(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 3, 4)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        completed = vehicle.advance_to(10.0, line_oracle)
        assert completed == []
        assert vehicle.location == 0
        assert not vehicle.is_idle
        # Finishing later processes the pick-up and drop-off.
        vehicle.advance_to(200.0, line_oracle)
        assert vehicle.location == 4
        assert vehicle.is_idle

    def test_pickup_increases_onboard(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 0, 4, riders=2)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        vehicle.advance_to(5.0, line_oracle)
        assert vehicle.onboard == 2
        vehicle.advance_to(100.0, line_oracle)
        assert vehicle.onboard == 0

    def test_waits_for_release_before_pickup(self, make_line_request, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        request = make_line_request(1, 1, 2, release_time=60.0)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        vehicle.advance_to(30.0, line_oracle)
        # Vehicle has reached neither stop because the pick-up waits for t=60.
        assert vehicle.onboard == 0
        completed = vehicle.advance_to(100.0, line_oracle)
        assert completed and completed[0][1] == pytest.approx(70.0)

    def test_next_event_time(self, make_line_request, line_oracle):
        """The engine's heap key: read without an oracle query, so a leg
        that ``advance_to`` has not priced yet is due at once."""
        vehicle = Vehicle(vehicle_id=1, location=0, capacity=3)
        assert vehicle.next_event_time() == math.inf
        request = make_line_request(1, 2, 3)
        vehicle.assign_schedule(Schedule.direct(request), [request], current_time=0.0)
        assert vehicle.next_event_time() == -math.inf
        vehicle.advance_to(0.0, line_oracle)
        queries = line_oracle.stats.queries
        assert vehicle.next_event_time() == pytest.approx(20.0)
        vehicle.advance_to(25.0, line_oracle)
        assert vehicle.next_event_time() == pytest.approx(30.0)
        vehicle.advance_to(30.0, line_oracle)
        assert vehicle.next_event_time() == math.inf
        assert line_oracle.stats.queries == queries + 1

    def test_advance_is_idempotent_when_idle(self, line_oracle):
        vehicle = Vehicle(vehicle_id=1, location=2)
        vehicle.advance_to(50.0, line_oracle)
        vehicle.advance_to(100.0, line_oracle)
        assert vehicle.total_travel_time == 0.0
        assert vehicle.location == 2

    def test_memory_estimate_positive(self, make_line_request):
        vehicle = Vehicle(vehicle_id=1, location=0)
        assert vehicle.estimated_memory_bytes() > 0
