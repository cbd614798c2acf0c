"""Tests for the distance oracle: correctness, caching and statistics."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.exceptions import NetworkError, UnreachableError
from repro.network.generators import grid_city
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import DistanceOracle


@pytest.fixture()
def jittered_city() -> RoadNetwork:
    return grid_city(5, 5, block_length=120.0, perturbation=0.3, seed=9)


class TestCorrectness:
    def test_matches_networkx_dijkstra(self, jittered_city: RoadNetwork):
        oracle = DistanceOracle(jittered_city)
        graph = jittered_city.to_networkx()
        nodes = list(jittered_city.nodes())
        for source in nodes[::5]:
            expected = nx.single_source_dijkstra_path_length(graph, source, weight="weight")
            for target in nodes[::3]:
                assert oracle.cost(source, target) == pytest.approx(expected[target])

    def test_zero_cost_to_self(self, oracle):
        assert oracle.cost(7, 7) == 0.0
        assert oracle.path(7, 7) == [7]

    def test_path_is_consistent_with_cost(self, jittered_city: RoadNetwork):
        oracle = DistanceOracle(jittered_city)
        path = oracle.path(0, 24)
        assert path[0] == 0 and path[-1] == 24
        total = sum(
            jittered_city.edge_cost(u, v) for u, v in zip(path, path[1:])
        )
        assert total == pytest.approx(oracle.cost(0, 24))

    def test_unreachable_returns_inf_and_path_raises(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 10, 0)
        oracle = DistanceOracle(network)
        assert math.isinf(oracle.cost(0, 1))
        with pytest.raises(UnreachableError):
            oracle.path(0, 1)

    def test_directed_asymmetry(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        network.add_node(1, 10, 0)
        network.add_edge(0, 1, 5.0)
        oracle = DistanceOracle(network)
        assert oracle.cost(0, 1) == 5.0
        assert math.isinf(oracle.cost(1, 0))

    def test_unknown_endpoint_raises(self, oracle):
        with pytest.raises(NetworkError):
            oracle.cost(0, 10_000)


class TestCachingAndStats:
    def test_cache_hit_counted(self, grid_network):
        oracle = DistanceOracle(grid_network)
        oracle.cost(0, 20)
        before_searches = oracle.stats.searches
        value = oracle.cost(0, 20)
        assert oracle.stats.searches == before_searches
        assert oracle.stats.cache_hits >= 1
        assert value == pytest.approx(oracle.cost(0, 20))

    def test_intermediate_nodes_cached_from_one_search(self, grid_network):
        oracle = DistanceOracle(grid_network)
        oracle.cost(0, 35)
        searches = oracle.stats.searches
        # Nodes settled on the way to 35 should now be answered from cache.
        oracle.cost(0, 1)
        assert oracle.stats.searches == searches

    def test_query_counter_counts_logical_queries(self, grid_network):
        oracle = DistanceOracle(grid_network)
        for _ in range(5):
            oracle.cost(0, 3)
        assert oracle.stats.queries == 5

    def test_cache_disabled(self, grid_network):
        oracle = DistanceOracle(grid_network, cache_size=0)
        oracle.cost(0, 3)
        oracle.cost(0, 3)
        assert oracle.stats.cache_hits == 0
        assert oracle.cache_len == 0

    def test_cache_eviction_bounds_size(self, grid_network):
        oracle = DistanceOracle(grid_network, cache_size=10)
        for target in range(30):
            oracle.cost(0, target % grid_network.num_nodes)
        assert oracle.cache_len <= 10

    def test_stats_reset_and_snapshot(self, grid_network):
        oracle = DistanceOracle(grid_network)
        oracle.cost(0, 5)
        snapshot = oracle.stats.snapshot()
        assert snapshot["queries"] == 1
        oracle.stats.reset()
        assert oracle.stats.queries == 0

    def test_clear_cache(self, grid_network):
        oracle = DistanceOracle(grid_network)
        oracle.cost(0, 5)
        assert oracle.cache_len > 0
        oracle.clear_cache()
        assert oracle.cache_len == 0

    def test_estimated_memory_grows_with_cache(self, grid_network):
        oracle = DistanceOracle(grid_network)
        empty = oracle.estimated_memory_bytes()
        oracle.cost(0, 35)
        assert oracle.estimated_memory_bytes() > empty


class TestTopSpeed:
    @pytest.mark.parametrize("backend", ["dijkstra", "ch", "hub_label"])
    def test_the_fastest_edge_of_the_serving_state_worked_out_on_first_use(
        self, jittered_city: RoadNetwork, monkeypatch, backend
    ):
        measured = []
        euclidean = jittered_city.euclidean
        monkeypatch.setattr(
            jittered_city, "euclidean", lambda u, v: measured.append(1) or euclidean(u, v)
        )
        oracle = DistanceOracle(jittered_city, backend=backend)
        assert not measured
        fastest = max(euclidean(u, v) / w for u, v, w in jittered_city.edges())
        assert oracle.top_speed() == fastest * (1 + 1e-9)
        assert len(measured) == jittered_city.num_edges
        assert oracle.top_speed() == fastest * (1 + 1e-9)
        assert len(measured) == jittered_city.num_edges
        # No path beats it.
        for target in jittered_city.nodes():
            assert oracle.cost(0, target) >= euclidean(0, target) / oracle.top_speed()

        # A faster road counts once the oracle serves a state that has it.
        jittered_city.add_edge(0, 24, euclidean(0, 24) / (3 * fastest))
        assert oracle.top_speed() == fastest * (1 + 1e-9)
        refresh = oracle.repair if backend != "dijkstra" else oracle.rebuild
        refresh()
        assert oracle.top_speed() == pytest.approx(3 * fastest, rel=1e-8)
        jittered_city.remove_edge(0, 24)
        oracle.rebuild()
        assert oracle.top_speed() == fastest * (1 + 1e-9)

    def test_a_network_without_a_bounding_edge_bounds_nothing(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 0.0, 0.0)
        network.add_edge(0, 1, 5.0, bidirectional=True)
        assert DistanceOracle(network).top_speed() == math.inf
        network.add_node(2, 3.0, 4.0)
        network.add_edge(1, 2, 0.0)
        assert DistanceOracle(network).top_speed() == math.inf
