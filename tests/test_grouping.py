"""Tests for the modified additive tree (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.grouping.additive_tree import GroupingStatistics, build_groups
from repro.grouping.group import RequestGroup
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState
from repro.shareability.builder import DynamicShareabilityGraphBuilder
from repro.shareability.graph import ShareabilityGraph


def _route(location: int, *, capacity: int = 3, time: float = 0.0) -> RouteState:
    return RouteState(
        vehicle_id=1, origin=location, departure_time=time,
        schedule=Schedule.empty(), capacity=capacity, onboard=0,
    )


@pytest.fixture()
def shareability(grid_network, oracle, config):
    def _build(requests):
        builder = DynamicShareabilityGraphBuilder(
            network=grid_network, oracle=oracle,
            config=config.with_overrides(angle_threshold=None),
        )
        builder.update(requests)
        return builder.graph
    return _build


class TestAdditiveTree:
    def test_singleton_groups_for_feasible_requests(self, make_request, oracle, shareability):
        requests = [make_request(1, 0, 4), make_request(2, 30, 35)]
        graph = shareability(requests)
        groups = build_groups(requests, graph, _route(0), oracle, max_group_size=1)
        members = {frozenset(g.members) for g in groups}
        assert frozenset({1}) in members
        assert all(g.size == 1 for g in groups)

    def test_infeasible_singletons_are_dropped(self, make_request, oracle, shareability):
        reachable = make_request(1, 0, 4)
        unreachable = make_request(2, 35, 30, gamma=1.2, max_wait=5.0)
        graph = shareability([reachable, unreachable])
        stats = GroupingStatistics()
        groups = build_groups([reachable, unreachable], graph, _route(0), oracle,
                              max_group_size=3, stats=stats)
        assert {frozenset(g.members) for g in groups if g.size == 1} == {frozenset({1})}
        assert stats.pruned_infeasible >= 1

    def test_pairs_require_shareability_edge(self, make_request, oracle):
        requests = [make_request(1, 0, 4), make_request(2, 1, 5)]
        empty_graph = ShareabilityGraph()
        for request in requests:
            empty_graph.add_request(request)
        groups = build_groups(requests, empty_graph, _route(0), oracle, max_group_size=3)
        assert all(g.size == 1 for g in groups)

    def test_pair_groups_built_along_corridor(self, make_request, oracle, shareability):
        requests = [make_request(1, 0, 4), make_request(2, 1, 5)]
        graph = shareability(requests)
        groups = build_groups(requests, graph, _route(0), oracle, max_group_size=3)
        sizes = {g.size for g in groups}
        assert 2 in sizes
        pair = next(g for g in groups if g.size == 2)
        evaluation = pair.schedule.evaluate(oracle, 0, 0.0, capacity=3)
        assert evaluation.feasible
        assert pair.members == frozenset({1, 2})

    def test_group_size_never_exceeds_limit(self, make_request, oracle, shareability):
        requests = [make_request(i, i, 24 + i, gamma=2.0) for i in range(1, 6)]
        graph = shareability(requests)
        groups = build_groups(requests, graph, _route(0), oracle, max_group_size=2)
        assert groups
        assert max(g.size for g in groups) <= 2

    def test_delta_costs_are_consistent(self, make_request, oracle, shareability):
        requests = [make_request(1, 0, 4), make_request(2, 1, 5)]
        graph = shareability(requests)
        route = _route(0)
        groups = build_groups(requests, graph, route, oracle, max_group_size=3)
        for group in groups:
            total = group.schedule.travel_cost(oracle, route.origin)
            assert group.total_cost == pytest.approx(total, rel=1e-6)
            assert group.delta_cost == pytest.approx(total, rel=1e-6)

    def test_groups_extend_existing_schedule(self, make_request, oracle, shareability):
        onboard = make_request(9, 1, 13, gamma=2.0)
        base = Schedule.direct(onboard)
        route = RouteState(vehicle_id=1, origin=0, departure_time=0.0,
                           schedule=base, capacity=3, onboard=0)
        newcomer = make_request(1, 0, 12, gamma=2.0)
        graph = shareability([newcomer])
        groups = build_groups([newcomer], graph, route, oracle, max_group_size=3)
        assert groups
        for group in groups:
            assert group.schedule.request_ids() >= {9, 1}

    def test_duplicate_requests_deduplicated(self, make_request, oracle, shareability):
        request = make_request(1, 0, 4)
        graph = shareability([request])
        groups = build_groups([request, request], graph, _route(0), oracle, max_group_size=3)
        assert len([g for g in groups if g.size == 1]) == 1


class TestRequestGroup:
    def test_properties(self, make_request, oracle):
        a = make_request(1, 0, 4, riders=2)
        b = make_request(2, 1, 5)
        schedule = Schedule.direct(a).with_insertion(b, 1, 2)
        group = RequestGroup(
            members=frozenset({1, 2}), requests=(a, b), schedule=schedule,
            delta_cost=30.0, total_cost=70.0,
        )
        assert group.size == 2
        assert group.riders == 3
        assert group.direct_cost == pytest.approx(a.direct_cost + b.direct_cost)
        assert group.with_loss(4.0).loss == 4.0
