"""Tests for the online baselines: pruneGDP, TicketAssign+ and DARM+DPRS."""

from __future__ import annotations

import pytest

from repro.dispatch.darm import DARMDispatcher
from repro.dispatch.prunegdp import PruneGDPDispatcher
from repro.dispatch.ticket_assign import TicketAssignDispatcher
from repro.model.vehicle import Vehicle


@pytest.fixture()
def corridor_requests(make_request):
    """Two shareable eastbound requests plus one far-away request."""
    return [
        make_request(1, 0, 4, release_time=5.0),
        make_request(2, 1, 5, release_time=6.0),
        make_request(3, 30, 34, release_time=6.0),
    ]


class TestPruneGDP:
    def test_assigns_to_cheapest_vehicle(self, make_request, make_context, check_assignments):
        vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=10)]
        request = make_request(1, 0, 4, release_time=5.0)
        context = make_context(vehicles, [request], current_time=6.0)
        result = PruneGDPDispatcher().dispatch(context)
        assert result.assigned_request_ids == {1}
        assert result.assignments[0].vehicle_id == 0
        check_assignments(result, context)

    def test_can_pool_shareable_requests_on_one_vehicle(
        self, corridor_requests, make_context, check_assignments
    ):
        vehicles = [Vehicle(vehicle_id=0, location=0)]
        context = make_context(vehicles, corridor_requests[:2], current_time=7.0)
        result = PruneGDPDispatcher().dispatch(context)
        assert result.assigned_request_ids == {1, 2}
        assert len(result.assignments) == 1
        check_assignments(result, context)

    def test_rejects_unreachable_request(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=10.0, gamma=1.2)
        context = make_context(vehicles, [request], current_time=6.0)
        result = PruneGDPDispatcher().dispatch(context)
        assert result.assigned_request_ids == set()
        assert [r.request_id for r in result.rejected] == [1]

    def test_retention_mode_keeps_unassigned(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=10.0, gamma=1.2)
        context = make_context(vehicles, [request], current_time=6.0)
        result = PruneGDPDispatcher(reject_unassigned=False).dispatch(context)
        assert result.rejected == []

    def test_memory_estimate(self, corridor_requests, make_context):
        dispatcher = PruneGDPDispatcher()
        vehicles = [Vehicle(vehicle_id=0, location=0)]
        dispatcher.dispatch(make_context(vehicles, corridor_requests, current_time=7.0))
        assert dispatcher.estimated_memory_bytes() >= 0
        dispatcher.reset()


class TestTicketAssign:
    def test_contention_resolved_by_cheapest_bid(
        self, make_request, make_context, check_assignments
    ):
        # Two requests whose best vehicle is the same one: the closer request
        # wins the ticket in round one, the other retries.
        vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=3)]
        near = make_request(1, 0, 12, release_time=5.0)
        far = make_request(2, 1, 13, release_time=5.0, gamma=2.0)
        context = make_context(vehicles, [near, far], current_time=6.0)
        dispatcher = TicketAssignDispatcher()
        result = dispatcher.dispatch(context)
        assert 1 in result.assigned_request_ids
        by_vehicle = {a.vehicle_id: a.new_request_ids for a in result.assignments}
        assert 1 in by_vehicle.get(0, set())
        check_assignments(result, context)

    def test_contention_counter_increases(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=0)]
        requests = [make_request(i, 0, 12, release_time=5.0) for i in (1, 2, 3)]
        context = make_context(vehicles, requests, current_time=6.0)
        dispatcher = TicketAssignDispatcher()
        dispatcher.dispatch(context)
        assert dispatcher.contention_retries >= 1

    def test_unplaceable_requests_rejected(self, make_request, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        request = make_request(1, 0, 4, release_time=5.0, max_wait=5.0, gamma=1.2)
        context = make_context(vehicles, [request], current_time=6.0)
        result = TicketAssignDispatcher().dispatch(context)
        assert [r.request_id for r in result.rejected] == [1]


class TestDARM:
    def test_matching_assigns_requests(self, corridor_requests, make_context, check_assignments):
        vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=32)]
        context = make_context(vehicles, corridor_requests, current_time=7.0)
        result = DARMDispatcher().dispatch(context)
        assert {1, 2} <= result.assigned_request_ids
        check_assignments(result, context)

    def test_demand_table_updates(self, corridor_requests, make_context):
        vehicles = [Vehicle(vehicle_id=0, location=0)]
        dispatcher = DARMDispatcher()
        context = make_context(vehicles, corridor_requests, current_time=7.0)
        dispatcher.dispatch(context)
        assert dispatcher.estimated_memory_bytes() > 0
        dispatcher.reset()
        assert dispatcher.repositioned == 0

    def test_repositioning_moves_idle_vehicle_and_charges_cost(
        self, make_request, make_context, monkeypatch
    ):
        # One busy area (requests around node 0) and one idle vehicle far away.
        idle = Vehicle(vehicle_id=7, location=35)
        vehicles = [Vehicle(vehicle_id=0, location=0), idle]
        requests = [make_request(i, 0, 4, release_time=5.0) for i in (1, 2, 3, 4)]
        monkeypatch.setattr(DARMDispatcher, "reposition_fraction", 1.0)
        monkeypatch.setattr(DARMDispatcher, "reposition_period", 0.0)
        dispatcher = DARMDispatcher()
        context = make_context(vehicles, requests, current_time=6.0)
        dispatcher.dispatch(context)
        assert dispatcher.repositioned >= 1
        assert idle.total_travel_time > 0
        assert idle.location != 35
