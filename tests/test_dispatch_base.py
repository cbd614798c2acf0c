"""Tests for the dispatcher interface helpers."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.dispatch import DISPATCHER_REGISTRY, make_dispatcher
from repro.dispatch.base import (
    Assignment,
    DispatchResult,
    candidate_vehicles,
    cheapest_insertion,
    feasible_insertions,
    requests_by_vehicle,
)
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import Vehicle
from repro.network.generators import grid_city
from repro.network.shortest_path import DistanceOracle
from repro.shareability.builder import DynamicShareabilityGraphBuilder


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

    def test_fleet_maps_are_built_from_the_vehicles_unless_given(self, make_context):
        vehicles = [Vehicle(vehicle_id=i, location=i) for i in (7, 3, 5)]
        context = make_context(vehicles, [])
        assert context.vehicles_by_id == {v.vehicle_id: v for v in vehicles}
        assert context.fleet_rank == {7: 0, 3: 1, 5: 2}
        kept = replace(context, vehicles_by_id={7: vehicles[0]}, fleet_rank={7: 0})
        assert kept.vehicles_by_id == {7: vehicles[0]} and kept.fleet_rank == {7: 0}

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


class TestAskingVehicles:
    def test_feasible_insertions_keep_the_candidates_order(
        self, make_request, make_context, oracle
    ):
        # An idle vehicle either side of one under way to a pick-up whose trip
        # passes the request's.
        rider = make_request(90, 6, 11, gamma=2.5)
        vehicles = [
            Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=12),
            Vehicle(vehicle_id=2, location=2),
        ]
        vehicles[1].assign_schedule(Schedule.direct(rider), [rider], 0.0)
        vehicles[1].advance_to(1.0, oracle)
        request = make_request(1, 7, 10, release_time=1.0, gamma=2.0)
        answers = []
        for now in (2.0, 3.0):
            context = make_context(vehicles, [request], current_time=now)
            assert [v.vehicle_id for v in candidate_vehicles(request, context)] == [0, 1, 2]
            found = feasible_insertions(request, context, context.working_routes(), None)
            assert all(outcome.feasible for outcome, _ in found)
            answers.append([(outcome.delta_cost, vehicle_id) for outcome, vehicle_id in found])
        # The second time the driving vehicle's answer is known before the
        # idle ones are asked; it still comes back in its place.
        assert request in vehicles[1].route_state(3.0).outcomes(oracle)
        assert answers[0] == answers[1] == [(50.0, 0), (0.0, 1), (50.0, 2)]

    def test_cheapest_insertion_gives_a_tie_to_the_earlier_candidate(
        self, make_request, make_context
    ):
        vehicles = [Vehicle(vehicle_id=7, location=0), Vehicle(vehicle_id=3, location=2)]
        request = make_request(1, 7, 10, release_time=1.0, gamma=2.0)
        context = make_context(vehicles, [request], current_time=2.0)
        routes = context.working_routes()
        found = feasible_insertions(request, context, routes, None)
        assert [vehicle_id for _, vehicle_id in found] == [7, 3]
        assert found[0][0].delta_cost == found[1][0].delta_cost
        outcome, vehicle_id = cheapest_insertion(request, context, routes, None)
        assert vehicle_id == 7 and outcome == found[0][0]

    def test_cheapest_insertion_without_a_feasible_vehicle(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        request = make_request(1, 0, 4, release_time=0.0, max_wait=0.0)
        context = make_context(vehicles, [request], current_time=0.0)
        assert cheapest_insertion(request, context, context.working_routes(), None) is None

    def test_working_routes_list_what_they_were_extended_with(
        self, make_request, make_context
    ):
        vehicles = [Vehicle(vehicle_id=i, location=0) for i in (2, 5, 9)]
        first, second, third = (make_request(i, 0, 4, release_time=5.0) for i in (1, 2, 3))
        context = make_context(vehicles, [first, second, third], current_time=6.0)
        routes = context.working_routes()
        assert routes.assignments() == []
        routes.extend(5, Schedule.direct(first), (first,))
        routes.extend(2, Schedule.direct(second), [second])
        compounded = routes[5].schedule.with_insertion(third, 1, 2)
        routes.extend(5, compounded, (third,))
        # Vehicles in the order first extended, each with its latest schedule
        # and everything it took; a route only read is not an assignment.
        assert routes[9].schedule == Schedule.empty()
        assert routes.assignments() == [
            Assignment(5, compounded, (first, third)),
            Assignment(2, Schedule.direct(second), (second,)),
        ]
        assert routes[5].schedule is compounded


_CITY = grid_city(6, 6, block_length=100.0, speed=10.0, perturbation=0.0, seed=1)
_ORACLE = DistanceOracle(_CITY)
_CONFIG = SimulationConfig(gamma=1.5, max_wait=120.0, capacity=3, batch_period=5.0)
_POOL = [
    Request.create(
        request_id=rid, source=source, destination=destination, release_time=float(rid),
        direct_cost=_ORACLE.cost(source, destination), gamma=1.8, max_wait=120.0,
    )
    for rid, (source, destination) in enumerate(
        [(0, 4), (1, 5), (6, 10), (7, 11), (30, 34), (31, 35), (2, 33), (12, 16)]
    )
]


class TestBuilderSync:
    @given(pools=st.lists(st.lists(st.sampled_from(_POOL), unique=True), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sync_is_remove_stale_then_update_new(self, pools):
        synced, by_hand = (
            DynamicShareabilityGraphBuilder(network=_CITY, oracle=_ORACLE, config=_CONFIG)
            for _ in range(2)
        )
        for pending in pools:
            held = set(by_hand.graph.request_ids())
            wanted = {request.request_id for request in pending}
            stale = sorted(held - wanted)
            new = [request for request in pending if request.request_id not in held]
            by_hand.remove(stale)
            by_hand.update(new)
            assert synced.sync(pending) == (len(stale), len(new))
            assert set(synced.graph.request_ids()) == wanted
            assert sorted(synced.graph.edges()) == sorted(by_hand.graph.edges())
            assert synced.stats == by_hand.stats
            # Asked again with the same pool, nothing moves.
            assert synced.sync(pending) == (0, 0)
            assert sorted(synced.graph.edges()) == sorted(by_hand.graph.edges())
            assert synced.stats == by_hand.stats


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
        assert context.vehicles_by_id == {4: vehicles[0]}
