"""Tests for the dispatcher interface helpers."""

from __future__ import annotations

import pytest

from repro.dispatch import DISPATCHER_REGISTRY, make_dispatcher
from repro.dispatch.base import Assignment, DispatchResult, candidate_vehicles, requests_by_vehicle
from repro.model.schedule import Schedule
from repro.model.vehicle import Vehicle


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        assert set(DISPATCHER_REGISTRY) == {
            "SARD", "pruneGDP", "TicketAssign+", "GAS", "RTV", "DARM+DPRS",
        }

    def test_make_dispatcher_sets_name(self):
        for name in DISPATCHER_REGISTRY:
            dispatcher = make_dispatcher(name)
            assert dispatcher.name == name

    def test_unknown_dispatcher(self):
        with pytest.raises(KeyError):
            make_dispatcher("Oracle")


class TestCandidateVehicles:
    def test_nearby_vehicle_found(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=1), Vehicle(vehicle_id=1, location=35)]
        request = make_request(1, 0, 4, release_time=5.0)
        context = make_context(vehicles, [request], current_time=5.0)
        found = candidate_vehicles(request, context)
        assert any(v.vehicle_id == 0 for v in found)

    def test_falls_back_to_all_vehicles(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        # Zero slack left: the radius query finds nothing, fallback returns all.
        request = make_request(1, 0, 4, release_time=0.0, max_wait=0.0)
        context = make_context(vehicles, [request], current_time=0.0)
        assert candidate_vehicles(request, context) == vehicles

    def test_max_candidates_keeps_closest(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=i, location=i) for i in range(10)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=300.0)
        context = make_context(vehicles, [request], current_time=5.0)
        found = candidate_vehicles(request, context, max_candidates=3)
        assert len(found) == 3
        found_ids = {v.vehicle_id for v in found}
        assert 0 in found_ids
        # Every kept vehicle is at least as close to the source as any dropped one.
        kept = max(context.network.euclidean(v.location, request.source) for v in found)
        dropped = [v for v in vehicles if v.vehicle_id not in found_ids]
        assert all(
            context.network.euclidean(v.location, request.source) >= kept - 1e-9
            for v in dropped
        )

    def test_max_candidates_truncation_is_stable(self, make_request, make_context):
        # Two vehicles per node: equally distant ones keep the index's order.
        vehicles = [Vehicle(vehicle_id=i, location=i // 2) for i in range(10)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=300.0)
        context = make_context(vehicles, [request], current_time=5.0)
        everyone = candidate_vehicles(request, context)
        assert len(everyone) > 3
        ranked = sorted(
            everyone, key=lambda v: context.network.euclidean(v.location, request.source)
        )
        assert candidate_vehicles(request, context, max_candidates=3) == ranked[:3]

    def test_fleet_map_is_built_once_per_context(self, make_context):
        vehicles = [Vehicle(vehicle_id=i, location=i) for i in range(3)]
        context = make_context(vehicles, [])
        assert "vehicles_by_id" not in vars(context)
        assert context.vehicles_by_id == {v.vehicle_id: v for v in vehicles}
        assert context.vehicles_by_id is context.vehicles_by_id

    def test_snapshots_are_taken_for_the_vehicles_asked_about(
        self, make_request, make_context, monkeypatch
    ):
        vehicles = [Vehicle(vehicle_id=i, location=5 * i) for i in range(6)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=20.0)
        context = make_context(vehicles, [request], current_time=5.0)
        taken: list[int] = []
        route_state = Vehicle.route_state
        monkeypatch.setattr(
            Vehicle, "route_state",
            lambda vehicle, now: taken.append(vehicle.vehicle_id) or route_state(vehicle, now),
        )
        make_dispatcher("pruneGDP").dispatch(context)
        reachable = [v.vehicle_id for v in candidate_vehicles(request, context)]
        assert 0 < len(reachable) < len(vehicles)
        assert taken == reachable
        # One snapshot per vehicle and dispatch call, at the context's time.
        routes = context.working_routes()
        assert routes[0] is routes[0]
        assert routes[0].departure_time == 5.0
        assert taken == [*reachable, 0]
        with pytest.raises(KeyError):
            routes[99]

    def test_requests_by_vehicle_is_inverse_mapping(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=35)]
        requests = [make_request(1, 0, 4, release_time=5.0),
                    make_request(2, 35, 30, release_time=5.0)]
        context = make_context(vehicles, requests, current_time=5.0)
        mapping = requests_by_vehicle(context, requests)
        assert set(mapping) == {0, 1}
        for request in requests:
            for vehicle in candidate_vehicles(request, context):
                assert request in mapping[vehicle.vehicle_id]


class TestResultTypes:
    def test_assignment_ids(self, make_request):
        request = make_request(1, 0, 4)
        assignment = Assignment(vehicle_id=3, schedule=Schedule.direct(request),
                                new_requests=(request,))
        assert assignment.new_request_ids == {1}

    def test_dispatch_result_assigned_ids(self, make_request):
        a = make_request(1, 0, 4)
        b = make_request(2, 1, 5)
        result = DispatchResult(assignments=[
            Assignment(1, Schedule.direct(a), (a,)),
            Assignment(2, Schedule.direct(b), (b,)),
        ])
        assert result.assigned_request_ids == {1, 2}

    def test_context_vehicle_lookup(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=4, location=0)]
        context = make_context(vehicles, [])
        assert context.vehicle_by_id(4) is vehicles[0]
        with pytest.raises(KeyError):
            context.vehicle_by_id(99)
