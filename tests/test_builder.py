"""Tests for the dynamic shareability-graph builder (Algorithm 1)."""

from __future__ import annotations

import math
from unittest import mock

import pytest

import repro.shareability.builder
from repro.config import SimulationConfig
from repro.insertion.pair_schedules import are_shareable
from repro.shareability.builder import DynamicShareabilityGraphBuilder


@pytest.fixture()
def builder(grid_network, oracle, config: SimulationConfig) -> DynamicShareabilityGraphBuilder:
    return DynamicShareabilityGraphBuilder(network=grid_network, oracle=oracle, config=config)


class TestConstruction:
    def test_single_request_has_no_edges(self, builder, make_request):
        builder.update([make_request(1, 0, 5)])
        assert builder.graph.num_nodes == 1
        assert builder.graph.num_edges == 0

    def test_edges_are_sound(self, builder, make_request, oracle, config):
        """Every edge the builder adds corresponds to a truly shareable pair."""
        requests = [
            make_request(1, 0, 4),
            make_request(2, 1, 5),
            make_request(3, 30, 35),
            make_request(4, 6, 10),
        ]
        builder.update(requests)
        by_id = {r.request_id: r for r in requests}
        for u, v in builder.graph.edges():
            assert are_shareable(by_id[u], by_id[v], oracle, capacity=config.capacity)

    def test_edges_are_complete_without_angle_pruning(
        self, grid_network, oracle, config, make_request
    ):
        """With angle pruning off, every shareable pair in the (city-wide)
        search radius becomes an edge."""
        requests = [
            make_request(i, (7 * i) % 36, (11 * i + 5) % 36) for i in range(1, 13)
        ]
        builder = DynamicShareabilityGraphBuilder(
            network=grid_network, oracle=oracle,
            config=config.with_overrides(angle_threshold=None),
        )
        builder.update(requests)
        shareable = {
            (a.request_id, b.request_id)
            for i, a in enumerate(requests)
            for b in requests[i + 1:]
            if are_shareable(a, b, oracle, capacity=config.capacity)
        }
        assert shareable
        assert {tuple(sorted(edge)) for edge in builder.graph.edges()} == shareable

    def test_pair_tests_charge_every_query_they_make(self, builder, make_request, oracle):
        requests = [make_request(i, i, 30 + i % 6) for i in range(1, 9)]
        before = oracle.stats.queries
        builder.update(requests)
        assert builder.stats.pairs_tested > 0
        assert builder.stats.shortest_path_queries == oracle.stats.queries - before > 0

    def test_colinear_requests_connected(self, builder, make_request):
        builder.update([make_request(1, 0, 4), make_request(2, 1, 5)])
        assert builder.graph.has_edge(1, 2)

    def test_incremental_update_adds_only_new_nodes(self, builder, make_request):
        first = [make_request(1, 0, 4)]
        second = [make_request(2, 1, 5)]
        builder.update(first)
        builder.update(second)
        assert builder.graph.num_nodes == 2
        assert builder.graph.has_edge(1, 2)
        # Re-inserting an existing request is a no-op.
        builder.update(first)
        assert builder.graph.num_nodes == 2

    def test_remove_drops_nodes_and_index_entries(self, builder, make_request):
        requests = [make_request(1, 0, 4), make_request(2, 1, 5)]
        builder.update(requests)
        builder.remove([1])
        assert 1 not in builder.graph
        assert builder.graph.num_edges == 0
        # Removing again (or removing unknown ids) is harmless.
        builder.remove([1, 99])

    def test_reset_clears_everything(self, builder, make_request):
        builder.update([make_request(1, 0, 4), make_request(2, 1, 5)])
        builder.reset()
        assert builder.graph.num_nodes == 0
        assert builder.stats.pairs_tested == 0


class TestPruning:
    def test_angle_pruning_reduces_pair_tests(self, grid_network, oracle, config, make_request):
        requests = [make_request(i, i % 6, 30 + (i % 6), release_time=float(i % 3))
                    for i in range(1, 25)]
        no_pruning = DynamicShareabilityGraphBuilder(
            network=grid_network, oracle=oracle,
            config=config.with_overrides(angle_threshold=None),
        )
        no_pruning.update(requests)
        with_pruning = DynamicShareabilityGraphBuilder(
            network=grid_network, oracle=oracle,
            config=config.with_overrides(angle_threshold=math.pi / 2),
        )
        with_pruning.update(requests)
        assert with_pruning.stats.pairs_tested <= no_pruning.stats.pairs_tested
        assert with_pruning.graph.num_edges <= no_pruning.graph.num_edges

    def test_temporal_window_filter(self, builder, make_request):
        """Requests whose pick-up windows cannot overlap are never connected."""
        early = make_request(1, 0, 4, release_time=0.0, max_wait=10.0)
        late = make_request(2, 1, 5, release_time=500.0, max_wait=10.0)
        builder.update([early, late])
        assert not builder.graph.has_edge(1, 2)

    def test_spatial_radius_is_the_slack_driven_at_ten_metres_a_second(
        self, builder, make_request
    ):
        # Sources 100 m apart: 10 m/s over 120 s of waiting reaches the other
        # source; 0 m/s leaves the 1 m floor, which reaches only its own node.
        near = [make_request(1, 0, 4), make_request(2, 1, 5)]
        builder.update(near)
        assert builder.graph.has_edge(1, 2)
        builder.reset()
        with mock.patch.object(repro.shareability.builder, "AVERAGE_SPEED", 0.0):
            builder.update(near)
        assert not builder.graph.has_edge(1, 2)
        assert builder.stats.pairs_tested == 0
        assert builder.stats.pruned_by_spatial == 1

    def test_statistics_accumulate(self, builder, make_request):
        builder.update([make_request(1, 0, 4), make_request(2, 1, 5)])
        stats = builder.stats
        assert stats.pairs_tested >= 1
        assert stats.edges_added == builder.graph.num_edges
        assert stats.shortest_path_queries > 0
