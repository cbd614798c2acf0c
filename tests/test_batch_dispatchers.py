"""Tests for the batch-mode baselines GAS and RTV."""

from __future__ import annotations

import pytest

from repro.dispatch.gas import GASDispatcher
from repro.dispatch.rtv import RTVDispatcher
from repro.model.vehicle import Vehicle


@pytest.fixture()
def small_scene(make_request):
    """Two nearby shareable requests, one distant request, two vehicles."""
    requests = [
        make_request(1, 0, 4, release_time=5.0),
        make_request(2, 1, 5, release_time=6.0),
        make_request(3, 30, 34, release_time=6.0),
    ]
    vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=31)]
    return requests, vehicles


class TestGAS:
    def test_serves_shareable_pair_together(self, small_scene, make_context, check_assignments):
        requests, vehicles = small_scene
        context = make_context(vehicles, requests, current_time=7.0)
        result = GASDispatcher().dispatch(context)
        check_assignments(result, context)
        assert {1, 2, 3} <= result.assigned_request_ids
        by_vehicle = {a.vehicle_id: a.new_request_ids for a in result.assignments}
        assert {1, 2} <= by_vehicle[0]
        assert 3 in by_vehicle[1]

    def test_profit_greedy_prefers_longer_trips(self, make_request, make_context):
        # One vehicle, two mutually unshareable requests: GAS keeps the one
        # with the larger direct cost (its "profit").
        short = make_request(1, 0, 2, release_time=5.0, max_wait=20.0, gamma=1.2)
        long = make_request(2, 12, 17, release_time=5.0, max_wait=20.0, gamma=1.2)
        vehicles = [Vehicle(vehicle_id=0, location=6, capacity=1)]
        context = make_context(vehicles, [short, long], current_time=6.0,
                               sim_config=None)
        result = GASDispatcher().dispatch(context)
        if result.assignments:
            chosen = result.assignments[0].new_request_ids
            assert 2 in chosen or 1 in chosen

    def test_reset_and_memory(self, small_scene, make_context):
        requests, vehicles = small_scene
        dispatcher = GASDispatcher()
        dispatcher.dispatch(make_context(vehicles, requests, current_time=7.0))
        assert dispatcher.estimated_memory_bytes() > 0
        dispatcher.reset()
        assert dispatcher.grouping_stats.groups_generated == 0

    def test_deterministic_given_seed(self, small_scene, make_context):
        requests, vehicles = small_scene
        first = GASDispatcher().dispatch(make_context(vehicles, requests, current_time=7.0))
        vehicles2 = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=31)]
        second = GASDispatcher().dispatch(make_context(vehicles2, requests, current_time=7.0))
        assert first.assigned_request_ids == second.assigned_request_ids


class TestRTV:
    def test_ilp_assignment_is_consistent(self, small_scene, make_context, check_assignments):
        requests, vehicles = small_scene
        context = make_context(vehicles, requests, current_time=7.0)
        dispatcher = RTVDispatcher()
        result = dispatcher.dispatch(context)
        check_assignments(result, context)
        assert {1, 2, 3} <= result.assigned_request_ids
        assert dispatcher.ilp_solved + dispatcher.ilp_fallbacks >= 1
        # At most one trip per vehicle.
        vehicle_ids = [a.vehicle_id for a in result.assignments]
        assert len(vehicle_ids) == len(set(vehicle_ids))

    def test_greedy_fallback_used_when_instance_too_large(
        self, small_scene, make_context, check_assignments, monkeypatch
    ):
        requests, vehicles = small_scene
        context = make_context(vehicles, requests, current_time=7.0)
        monkeypatch.setattr(RTVDispatcher, "max_variables", 0)
        dispatcher = RTVDispatcher()
        result = dispatcher.dispatch(context)
        check_assignments(result, context)
        assert dispatcher.ilp_fallbacks == 1
        assert result.assigned_request_ids

    def test_empty_pending_is_a_noop(self, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=0)]
        context = make_context(vehicles, [], current_time=5.0)
        result = RTVDispatcher().dispatch(context)
        assert result.assignments == []

    def test_memory_estimate_tracks_variables(self, small_scene, make_context):
        requests, vehicles = small_scene
        dispatcher = RTVDispatcher()
        dispatcher.dispatch(make_context(vehicles, requests, current_time=7.0))
        assert dispatcher.estimated_memory_bytes() > 0
        dispatcher.reset()
        assert dispatcher.ilp_solved == 0

    def test_greedy_fallback_respects_uniqueness(
        self, make_request, make_context, check_assignments, monkeypatch
    ):
        requests = [make_request(i, 0, 4, release_time=5.0) for i in (1, 2, 3, 4)]
        vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=1)]
        context = make_context(vehicles, requests, current_time=6.0)
        monkeypatch.setattr(RTVDispatcher, "max_variables", 0)
        result = RTVDispatcher().dispatch(context)
        check_assignments(result, context)
