"""Tests for the pluggable routing backends (CSR / CH / hub labels).

The load-bearing property: every backend is an exact drop-in for plain
Dijkstra -- equal costs (within 1e-6) on arbitrary directed networks
including unreachable pairs, uniform logical query accounting, and identical
dispatcher behaviour.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.dispatch.sard import SARDDispatcher
from repro.exceptions import ConfigurationError, NetworkError
from repro.model.vehicle import Vehicle
from repro.network.generators import grid_city
from repro.network.road_network import RoadNetwork
from repro.network.routing import (
    BACKEND_NAMES,
    CSRGraph,
    ContractionHierarchy,
    HubLabeling,
    make_backend,
    routing_data,
)
from repro.network.shortest_path import DistanceOracle
from repro.workloads.presets import make_workload

ALL_BACKENDS = ("dijkstra", "ch", "hub_label")


def _random_network(num_nodes: int, density: float, seed: int) -> RoadNetwork:
    """A random directed weighted network; sparse ones are disconnected."""
    rng = random.Random(seed)
    network = RoadNetwork()
    for node in range(num_nodes):
        network.add_node(node, rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < density:
                network.add_edge(u, v, rng.uniform(1.0, 100.0))
    return network


class TestCSRGraph:
    def test_round_trips_the_adjacency(self):
        network = _random_network(20, 0.15, seed=5)
        csr = CSRGraph.from_network(network)
        assert csr.num_nodes == network.num_nodes
        assert csr.num_edges == network.num_edges
        for node in network.nodes():
            index = csr.require_index(node)
            out = {csr.node_ids[j]: w for j, w in csr.out_edges(index)}
            assert out == dict(network.neighbors(node))
            incoming = {csr.node_ids[j]: w for j, w in csr.in_edges(index)}
            assert incoming == dict(network.predecessors(node))

    def test_unknown_node_raises(self):
        csr = CSRGraph.from_network(_random_network(5, 0.3, seed=1))
        with pytest.raises(NetworkError):
            csr.require_index(999)

    def test_sssp_settled_entries_are_exact(self):
        network = _random_network(25, 0.12, seed=8)
        csr = CSRGraph.from_network(network)
        full, _ = csr.sssp(0)
        partial, settled = csr.sssp(0, targets={csr.num_nodes - 1})
        for index in settled:
            assert partial[index] == pytest.approx(full[index])


class TestBackendEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_nodes=st.integers(min_value=6, max_value=26),
        density=st.floats(min_value=0.04, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_ch_and_hub_label_match_dijkstra(self, num_nodes, density, seed):
        """Property: preprocessed backends equal Dijkstra on random networks,
        including unreachable pairs (both sides must agree on ``inf``)."""
        network = _random_network(num_nodes, density, seed)
        plain = DistanceOracle(network, cache_size=0)
        ch = DistanceOracle(network, cache_size=0, backend="ch")
        hub = DistanceOracle(network, cache_size=0, backend="hub_label")
        for u in range(num_nodes):
            for v in range(num_nodes):
                expected = plain.cost(u, v)
                for oracle in (ch, hub):
                    actual = oracle.cost(u, v)
                    if math.isinf(expected):
                        assert math.isinf(actual), (u, v, actual)
                    else:
                        assert actual == pytest.approx(expected, abs=1e-6)

    def test_equivalence_on_jittered_city_with_expressways(self):
        city = grid_city(
            9, 9, block_length=140.0, perturbation=0.3, express_fraction=0.05, seed=17
        )
        plain = DistanceOracle(city, cache_size=0)
        rng = random.Random(4)
        nodes = list(city.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(150)]
        for backend in ("ch", "hub_label"):
            oracle = DistanceOracle(city, cache_size=0, backend=backend)
            for u, v in pairs:
                assert oracle.cost(u, v) == pytest.approx(plain.cost(u, v), abs=1e-6)

    def test_prefetch_matches_point_queries(self):
        network = _random_network(24, 0.1, seed=3)
        rng = random.Random(9)
        sources = rng.sample(range(24), 6)
        targets = rng.sample(range(24), 7)
        reference = DistanceOracle(network, cache_size=0)
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(network, backend=backend)
            oracle.prefetch(sources, targets)
            table = {(s, t): oracle.cost(s, t) for s in sources for t in targets}
            # Every pair but a self pair is answered from the batch.
            assert oracle.stats.cache_hits == sum(s != t for s, t in table)
            for (s, t), value in table.items():
                expected = reference.cost(s, t)
                if math.isinf(expected):
                    assert math.isinf(value)
                else:
                    assert value == pytest.approx(expected, abs=1e-6)

    def test_path_works_on_every_backend(self, grid_network):
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(grid_network, backend=backend)
            path = oracle.path(0, 35)
            assert path[0] == 0 and path[-1] == 35
            total = sum(
                grid_network.edge_cost(u, v) for u, v in zip(path, path[1:])
            )
            assert total == pytest.approx(oracle.cost(0, 35))

    def test_unknown_endpoint_raises_on_every_backend(self, grid_network):
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(grid_network, backend=backend)
            with pytest.raises(NetworkError):
                oracle.cost(0, 10_000)

    def test_unknown_self_pair_raises(self, grid_network):
        """Regression: ``cost(u, u)`` / ``path(u, u)`` used to short-circuit
        to ``0.0`` / ``[u]`` without checking the node exists."""
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(grid_network, backend=backend)
            with pytest.raises(NetworkError):
                oracle.cost(10_000, 10_000)
            with pytest.raises(NetworkError):
                oracle.path(10_000, 10_000)
            assert oracle.cost(0, 0) == 0.0
            assert oracle.path(0, 0) == [0]

    def test_ch_many_to_many_answers_requested_pairs_only(
        self, grid_network, monkeypatch
    ):
        """The CH backend batches over exactly the requested pairs (not the
        dense cross product) and the facade actually routes through it."""
        from repro.network.routing import CHBackend

        reference = DistanceOracle(grid_network, cache_size=0)
        oracle = DistanceOracle(grid_network, backend="ch")

        seen_pairs: list[tuple[int, int]] = []
        original = CHBackend.many_to_many

        def spy(self, pairs):
            seen_pairs.extend(pairs)
            return original(self, pairs)

        monkeypatch.setattr(CHBackend, "many_to_many", spy)
        oracle.prefetch([0, 1], [20, 21, 22])
        monkeypatch.undo()
        table = {(s, t): oracle.cost(s, t) for s in (0, 1) for t in (20, 21, 22)}
        assert len(seen_pairs) == 6  # requested pairs, no dense blow-up
        assert len(set(seen_pairs)) == 6
        for (s, t), value in table.items():
            assert value == pytest.approx(reference.cost(s, t), abs=1e-9)

        # Direct backend call: duplicate pairs are answered once.
        backend = make_backend("ch", routing_data(grid_network))
        learned, searches, work = backend.many_to_many([(0, 20), (0, 20)])
        assert set(learned) == {(0, 20)}
        assert searches == 1 and work > 0


class TestQueryStatistics:
    def test_snapshot_consistent_across_backends(self, grid_network):
        """Regression: the paper's "#Shortest Path Queries" column (the
        ``queries`` counter) must not depend on the routing backend, and the
        snapshot schema must stay identical."""
        rng = random.Random(11)
        nodes = list(grid_network.nodes())
        calls = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        calls += calls[:10]  # repeats -> cache traffic
        snapshots = {}
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(grid_network, backend=backend)
            for u, v in calls:
                oracle.cost(u, v)
            oracle.prefetch(nodes[:4], nodes[10:13])
            snapshots[backend] = oracle.stats.snapshot()
        reference = snapshots["dijkstra"]
        assert set(reference) == {
            "queries", "cache_hits", "searches", "settled_nodes",
            "fallback_queries",
        }
        for backend, snapshot in snapshots.items():
            assert set(snapshot) == set(reference)
            assert snapshot["queries"] == reference["queries"], backend
            assert snapshot["searches"] > 0, backend

    def test_prefetch_is_invisible_to_logical_counters(self, grid_network):
        """Cache warming must not distort the reported query column."""
        for backend in ALL_BACKENDS:
            oracle = DistanceOracle(grid_network, backend=backend)
            oracle.prefetch([0, 1, 2], [20, 21])
            assert oracle.stats.queries == 0, backend
            assert oracle.stats.cache_hits == 0, backend
            assert oracle.cache_len > 0, backend
            searches = oracle.stats.searches
            assert oracle.cost(0, 20) == pytest.approx(
                DistanceOracle(grid_network).cost(0, 20)
            )
            assert oracle.stats.searches == searches  # answered from cache
            assert oracle.stats.cache_hits == 1

    def test_preprocessed_backend_uses_pair_cache(self, grid_network):
        oracle = DistanceOracle(grid_network, backend="hub_label")
        oracle.cost(0, 20)
        searches = oracle.stats.searches
        oracle.cost(0, 20)
        assert oracle.stats.searches == searches
        assert oracle.stats.cache_hits >= 1


class TestConfigurationAndSharing:
    def test_invalid_backend_rejected(self, grid_network):
        with pytest.raises(NetworkError):
            DistanceOracle(grid_network, backend="quantum")
        with pytest.raises(ConfigurationError):
            SimulationConfig(routing_backend="quantum")
        assert set(BACKEND_NAMES) == set(ALL_BACKENDS)

    def test_workload_threads_backend_into_fresh_oracles(self):
        workload = make_workload(
            "nyc",
            city_scale=0.2,
            workload_overrides={"num_requests": 10, "num_vehicles": 3},
            simulation_overrides={"routing_backend": "hub_label"},
        )
        assert workload.simulation_config.routing_backend == "hub_label"
        assert workload.fresh_oracle().backend_name == "hub_label"
        assert workload.fresh_oracle(backend="ch").backend_name == "ch"

    def test_preprocessing_shared_between_oracles(self, grid_network, monkeypatch):
        builds: list[ContractionHierarchy] = []
        build = ContractionHierarchy.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(ContractionHierarchy, "__init__", counting)
        first = DistanceOracle(grid_network, backend="ch")
        second = DistanceOracle(grid_network, backend="hub_label")
        assert first.cost(0, 20) == pytest.approx(second.cost(0, 20))
        assert builds == [routing_data(grid_network).hierarchy]

    def test_routing_data_invalidated_on_mutation(self, grid_network):
        data = routing_data(grid_network)
        grid_network.add_node(999, 5.0, 5.0)
        grid_network.add_edge(0, 999, 3.0)
        refreshed = routing_data(grid_network)
        assert refreshed is not data
        assert refreshed.csr.num_nodes == grid_network.num_nodes

    def test_routing_data_invalidated_on_reweight(self, grid_network):
        """Regression: a reweight keeps ``(num_nodes, num_edges)`` constant,
        so staleness detection must come from the mutation counter -- and a
        fresh preprocessed oracle must serve the *new* cost."""
        old_cost = DistanceOracle(grid_network, backend="hub_label").cost(0, 1)
        data = routing_data(grid_network)
        grid_network.add_edge(0, 1, 9999.0)  # reweight an existing edge
        assert routing_data(grid_network) is not data
        new_cost = DistanceOracle(grid_network, backend="hub_label").cost(0, 1)
        assert new_cost != old_cost
        assert new_cost == pytest.approx(DistanceOracle(grid_network).cost(0, 1))

    def test_routing_data_invalidated_on_edge_removal(self, grid_network):
        data = routing_data(grid_network)
        grid_network.remove_edge(0, 1)
        refreshed = routing_data(grid_network)
        assert refreshed is not data
        assert refreshed.csr.num_edges == grid_network.num_edges
        for backend in ("ch", "hub_label"):
            assert DistanceOracle(grid_network, backend=backend).cost(
                0, 1
            ) == pytest.approx(DistanceOracle(grid_network).cost(0, 1))

    def test_fingerprint_is_constant_time(self, grid_network):
        """The fingerprint must not iterate edges (the old XOR checksum was
        O(E) per oracle construction and could cancel out)."""
        from repro.network.routing.backends import network_fingerprint as _fingerprint

        calls = 0
        original = type(grid_network).edges

        def counting(self):
            nonlocal calls
            calls += 1
            return original(self)

        type(grid_network).edges = counting
        try:
            fingerprint = _fingerprint(grid_network)
        finally:
            type(grid_network).edges = original
        assert calls == 0
        assert fingerprint == (
            grid_network.num_nodes,
            grid_network.num_edges,
            grid_network.mutation_count,
        )

    def test_hub_labels_cover_ch_hierarchy(self, grid_network):
        data = routing_data(grid_network)
        hierarchy = data.hierarchy
        labels = data.labeling
        assert isinstance(hierarchy, ContractionHierarchy)
        assert isinstance(labels, HubLabeling)
        # Every label is computed and holds its own node as a hub at distance zero.
        for index in range(data.csr.num_nodes):
            assert labels.forward[index][index] == 0.0
            assert labels.backward[index][index] == 0.0


class TestDispatchParity:
    def test_sard_assignments_identical_across_backends(self):
        workload = make_workload(
            "nyc",
            city_scale=0.25,
            workload_overrides={"num_requests": 40, "num_vehicles": 8},
        )
        reference = None
        for backend in ("dijkstra", "hub_label"):
            oracle = workload.fresh_oracle(backend=backend)
            vehicles: list[Vehicle] = workload.fresh_vehicles()
            from repro.simulation.engine import Simulator

            simulator = Simulator(
                network=workload.network,
                oracle=oracle,
                vehicles=vehicles,
                requests=list(workload.requests),
                dispatcher=SARDDispatcher(),
                config=workload.simulation_config,
                record_events=False,
            )
            result = simulator.run()
            signature = (
                result.metrics.assigned_requests,
                sorted(
                    (
                        v.vehicle_id,
                        tuple(sorted(request.request_id for request, _ in v.completed)),
                    )
                    for v in vehicles
                ),
            )
            if reference is None:
                reference = signature
            else:
                assert signature == reference
