"""Mid-simulation network mutation: every backend stays exact.

The dynamic-world scenario engine reweights and removes edges while oracles
hold preprocessed structures.  The load-bearing properties:

* after every mutation burst, a rebuilt (or fallback-serving) oracle of any
  backend agrees with a fresh Dijkstra over the mutated network,
* closed edges never appear in returned paths, and
* a rebuild adopts a routing state the oracle holds only where a fresh build
  would reproduce it bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from test_ch_hierarchy import hierarchy_digest

from repro.config import ChaosConfig
from repro.exceptions import InjectedFaultError, UnreachableError
from repro.insertion.linear_insertion import best_insertion
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState
from repro.network import shortest_path
from repro.network.generators import grid_city
from repro.network.road_network import RoadNetwork
from repro.network.routing import (
    ContractionHierarchy,
    CSRGraph,
    RoutingData,
    make_backend,
    routing_data,
)
from repro.network.routing.backends import csr_content
from repro.network.shortest_path import DistanceOracle
from repro.resilience.faults import ChaosOracle, FaultInjector

ALL_BACKENDS = ("dijkstra", "ch", "hub_label")


def _city(seed: int = 3):
    return grid_city(
        7, 7, block_length=150.0, perturbation=0.2, express_fraction=0.04, seed=seed
    )


def _reference_costs(network, pairs):
    reference = DistanceOracle(network, cache_size=0, backend="dijkstra")
    return {pair: reference.cost(*pair) for pair in pairs}


def _assert_parity(oracle, network, pairs):
    expected = _reference_costs(network, pairs)
    for (u, v), want in expected.items():
        got = oracle.cost(u, v)
        if math.isinf(want):
            assert math.isinf(got), (u, v)
        else:
            assert got == pytest.approx(want, abs=1e-6), (u, v)


def _mutation_bursts(network, rng):
    """Three bursts: reweight, close, reopen -- returns closed-edge sets."""
    edges = sorted(network.edges())
    # Burst 1: slow a random edge subset down 3x.
    reweighted = rng.sample(edges, 12)
    for u, v, cost in reweighted:
        network.add_edge(u, v, cost * 3.0)
    yield set()
    # Burst 2: close a handful of safe edges (keep degrees positive).
    closed: set[tuple[int, int]] = set()
    for u, v, cost in rng.sample(edges, 20):
        if len(closed) == 6:
            break
        if not network.has_edge(u, v):
            continue
        if network.out_degree(u) <= 1 or sum(1 for _ in network.predecessors(v)) <= 1:
            continue
        network.remove_edge(u, v)
        closed.add((u, v))
    assert closed
    yield closed
    # Burst 3: reopen everything at the original cost.
    for u, v in sorted(closed):
        original = next(c for (a, b, c) in edges if (a, b) == (u, v))
        network.add_edge(u, v, original)
    yield set()


class TestMutationParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_rebuild_matches_fresh_dijkstra_after_each_burst(self, backend):
        network = _city()
        rng = random.Random(11)
        nodes = list(network.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        oracle = DistanceOracle(network, backend=backend)
        _assert_parity(oracle, network, pairs)
        for closed in _mutation_bursts(network, rng):
            assert oracle.is_stale
            oracle.rebuild()
            assert not oracle.is_stale and not oracle.serving_fallback
            _assert_parity(oracle, network, pairs)
            for u, v in pairs[:20]:
                try:
                    path = oracle.path(u, v)
                except UnreachableError:
                    continue
                legs = list(zip(path, path[1:]))
                assert all(network.has_edge(a, b) for a, b in legs)
                assert not closed.intersection(legs)

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_fallback_is_exact_without_rebuild(self, backend):
        """The Dijkstra fallback serves the dirty window exactly while the
        preprocessed structures are stale."""
        network = _city(seed=9)
        rng = random.Random(4)
        nodes = list(network.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(40)]
        oracle = DistanceOracle(network, backend=backend)
        for (u, v) in pairs[:5]:
            oracle.cost(u, v)  # force preprocessing on the pristine network
        for closed in _mutation_bursts(network, rng):
            oracle.enable_fallback()
            assert oracle.serving_fallback and not oracle.is_stale
            _assert_parity(oracle, network, pairs)
            for u, v in pairs[:10]:
                try:
                    path = oracle.path(u, v)
                except UnreachableError:
                    continue
                legs = list(zip(path, path[1:]))
                assert all(network.has_edge(a, b) for a, b in legs)
                assert not closed.intersection(legs)
        assert oracle.stats.fallback_queries > 0
        oracle.rebuild()
        assert not oracle.serving_fallback
        _assert_parity(oracle, network, pairs)

    def test_stale_oracle_detects_mutation(self):
        network = _city(seed=5)
        oracle = DistanceOracle(network, backend="ch")
        assert not oracle.is_stale
        u, v, cost = next(iter(network.edges()))
        network.add_edge(u, v, cost * 2.0)
        assert oracle.is_stale

    def test_rebuild_reports_wall_clock(self):
        network = _city(seed=6)
        oracle = DistanceOracle(network, backend="hub_label")
        oracle.cost(0, 5)
        u, v, cost = next(iter(network.edges()))
        network.add_edge(u, v, cost * 2.0)
        seconds = oracle.rebuild()
        assert seconds > 0.0


class TestSwapOrBuildRepair:
    """DistanceOracle.repair: a snapshot swap when the network returns to a
    content the oracle holds, else a full build -- exact either way."""

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_repair_matches_fresh_build_after_each_burst(self, backend):
        """Acceptance: after every mutation burst the repaired oracle agrees
        with a *freshly built* oracle of the same backend on every sampled
        pair, and its paths avoid closed edges.  No burst returns to a
        content seen before, so each one is a build."""
        network = _city()
        rng = random.Random(11)
        nodes = list(network.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        oracle = DistanceOracle(network, backend=backend)
        _assert_parity(oracle, network, pairs)
        modes = []
        for closed in _mutation_bursts(network, rng):
            assert oracle.is_stale
            modes.append(oracle.repair().mode)
            assert not oracle.is_stale and not oracle.serving_fallback
            fresh = DistanceOracle(network, cache_size=0, backend=backend)
            for u, v in pairs:
                got = oracle.cost(u, v)
                want = fresh.cost(u, v)
                if math.isinf(want):
                    assert math.isinf(got), (u, v)
                else:
                    assert got == pytest.approx(want, abs=1e-9), (u, v)
            for u, v in pairs[:20]:
                try:
                    path = oracle.path(u, v)
                except UnreachableError:
                    continue
                legs = list(zip(path, path[1:]))
                assert all(network.has_edge(a, b) for a, b in legs)
                assert not closed.intersection(legs)
        assert modes == ["rebuilt"] * 3

    def test_a_burst_that_does_not_revert_serves_a_fresh_build(self):
        """No hierarchy is patched: a burst to a content the oracle does not
        hold serves exactly what a build of the mutated network contracts."""
        network = _city(seed=21)
        oracle = DistanceOracle(network, backend="ch")
        u, v, cost = sorted(network.edges())[7]
        network.add_edge(u, v, cost * 0.5)
        report = oracle.repair()
        served = routing_data(network).hierarchy
        fresh = ContractionHierarchy(CSRGraph.from_network(network))
        assert served.rank == fresh.rank
        assert hierarchy_digest(served) == hierarchy_digest(fresh)
        assert report.mode == "rebuilt"

    def test_repair_snapshot_swap_on_exact_reversion(self):
        """A burst rebuilds but keeps the pre-burst state; reverting the
        mutation then swaps it back without any preprocessing."""
        network = _city(seed=13)
        rng = random.Random(3)
        nodes = list(network.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(30)]
        oracle = DistanceOracle(network, backend="ch")
        before = {pair: oracle.cost(*pair) for pair in pairs}
        scaled = sorted(network.edges())[:40]
        for u, v, cost in scaled:
            network.add_edge(u, v, cost * 3.0)
        assert oracle.repair().mode == "rebuilt"
        for u, v, cost in scaled:
            network.add_edge(u, v, cost)
        assert oracle.repair().mode == "snapshot"
        for pair, want in before.items():
            assert oracle.cost(*pair) == want

    def test_repair_noop_when_nothing_changed(self):
        network = _city(seed=14)
        oracle = DistanceOracle(network, backend="ch")
        oracle.cost(0, 5)
        assert oracle.repair().mode == "noop"

    def test_repair_survives_a_node_move_between_bursts(self):
        """A node move changes no distance: the burst after it is refreshed
        like any other, and exactly."""
        network = _city(seed=15)
        rng = random.Random(15)
        nodes = list(network.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(60)]
        oracle = DistanceOracle(network, backend="ch")
        edges = sorted(network.edges())
        u, v, cost = edges[7]
        network.add_edge(u, v, cost * 2.0)
        assert oracle.repair().mode == "rebuilt"
        x, y = network.position(u)
        network.add_node(u, x + 25.0, y)  # node move
        a, b, other = edges[20]
        network.add_edge(a, b, other * 3.0)
        report = oracle.repair()
        assert report.mode == "rebuilt"
        assert not oracle.is_stale
        _assert_parity(oracle, network, pairs)

    def test_repair_on_graph_search_backend_rebuilds(self):
        """dijkstra holds no hierarchy; repair degenerates to the (cheap) CSR
        rebuild."""
        network = _city(seed=16)
        oracle = DistanceOracle(network, backend="dijkstra")
        oracle.cost(0, 5)
        u, v, cost = next(iter(network.edges()))
        network.add_edge(u, v, cost * 2.0)
        report = oracle.repair()
        assert report.mode == "rebuilt"
        assert not oracle.is_stale

    def test_repair_decrease_below_recorded_shortcut(self):
        """A base edge dropping below a shortcut the hierarchy holds: the
        refreshed oracle answers with the new edge."""
        network = RoadNetwork()
        for node in range(8):
            network.add_node(node, float(node), 0.0)
        # 0 -> 1 -> 2 costs 8; the direct edge 0 -> 2 costs 10, so node 1
        # (cheap, degree 2) contracts first and adds the shortcut
        # (0, 2, 8.0); the high-degree endpoints contract last.
        network.add_edge(0, 1, 4.0, bidirectional=True)
        network.add_edge(1, 2, 4.0, bidirectional=True)
        network.add_edge(0, 2, 10.0, bidirectional=True)
        for extra in range(3, 8):
            network.add_edge(0, extra, 20.0 + extra, bidirectional=True)
            network.add_edge(2, extra, 30.0 + extra, bidirectional=True)
        oracle = DistanceOracle(network, cache_size=0, backend="ch")
        assert oracle.cost(0, 2) == 8.0
        network.add_edge(0, 2, 4.0)  # below the shortcut's weight
        report = oracle.repair()
        assert report.mode == "rebuilt"
        assert oracle.cost(0, 2) == 4.0

    def test_repair_node_addition_never_swaps_a_snapshot(self):
        """Regression: the snapshot signature covers the node set, so adding
        a node (edge content unchanged) must rebuild, not swap in routing
        data for the wrong node set."""
        network = _city(seed=22)
        oracle = DistanceOracle(network, backend="ch")
        oracle.cost(0, 5)
        scaled = sorted(network.edges())[:40]
        for u, v, cost in scaled:
            network.add_edge(u, v, cost * 3.0)
        assert oracle.repair().mode == "rebuilt"
        for u, v, cost in scaled:
            network.add_edge(u, v, cost)  # content now matches a snapshot...
        new_node = max(network.nodes()) + 1
        network.add_node(new_node, 0.0, 0.0)  # ...but the node set does not
        report = oracle.repair()
        assert report.mode == "rebuilt"
        assert not oracle.is_stale
        assert oracle.cost(0, 5) > 0.0
        assert oracle.cost(new_node, new_node) == 0.0


class TestGeneration:
    """``DistanceOracle.generation`` changes exactly where an answer already
    given may stop being the answer -- the stamp plan snapshots compare."""

    @staticmethod
    def _slow_one_edge(network):
        u, v, cost = next(iter(network.edges()))
        network.add_edge(u, v, cost * 2.0)

    def test_rebuild_and_clear_cache_start_a_new_generation(self):
        oracle = DistanceOracle(_city(seed=21))
        first = oracle.generation
        oracle.rebuild()
        second = oracle.generation
        oracle.clear_cache()
        assert len({first, second, oracle.generation}) == 3

    def test_repair_starts_one_unless_it_is_a_noop(self):
        network = _city(seed=22)
        oracle = DistanceOracle(network, backend="ch")
        oracle.cost(0, 5)
        before = oracle.generation
        assert oracle.repair().mode == "noop"
        assert oracle.generation == before
        self._slow_one_edge(network)
        assert oracle.repair().mode == "rebuilt"
        rebuilt = oracle.generation
        assert rebuilt != before
        # Reverting the edge swaps the remembered routing state back in.
        u, v, cost = next(iter(network.edges()))
        network.add_edge(u, v, cost / 2.0)
        assert oracle.repair().mode == "snapshot"
        assert oracle.generation not in (before, rebuilt)

    def test_fallback_starts_one_when_it_switches(self):
        network = _city(seed=23)
        oracle = DistanceOracle(network, backend="ch")
        before = oracle.generation
        self._slow_one_edge(network)
        assert oracle.generation == before  # a stale oracle still answers as it did
        oracle.enable_fallback()
        switched = oracle.generation
        assert switched != before
        oracle.enable_fallback()  # already serving this network
        assert oracle.generation == switched

    def test_lru_eviction_does_not(self):
        network = _city(seed=24)
        oracle = DistanceOracle(network, cache_size=4, backend="ch")
        before = oracle.generation
        answers = {(0, node): oracle.cost(0, node) for node in range(1, 30)}
        assert oracle.cache_len == 4
        assert oracle.generation == before
        assert all(oracle.cost(*pair) == cost for pair, cost in answers.items())

    def test_chaos_corruption_and_heal_each_start_one(self):
        network = _city(seed=25)
        oracle = ChaosOracle(
            network, injector=FaultInjector(ChaosConfig(corruption_rate=1.0))
        )
        healthy = oracle.cost(0, 5)
        before = oracle.generation
        oracle.heal()  # nothing to heal: same answers, same generation
        assert oracle.generation == before
        oracle.rebuild()
        assert oracle.corrupted and oracle.cost(0, 5) != healthy
        corrupted = oracle.generation
        oracle.heal()
        assert oracle.cost(0, 5) == healthy
        assert len({before, corrupted, oracle.generation}) == 3

    def test_snapshot_priced_before_a_closure_is_priced_again_after_rebuild(self):
        """The regression behind the oracle stamp: a kept outcome must not
        survive the rebuild that makes one of the route's stops unreachable."""
        one_way = RoadNetwork()
        for node in range(5):
            one_way.add_node(node, node * 100.0, 0.0)
        for node in range(4):
            one_way.add_edge(node, node + 1, 10.0)
        oracle = DistanceOracle(one_way)
        rider = Request(release_time=0.0, request_id=1, source=2, destination=4)
        route = RouteState(vehicle_id=0, origin=0, departure_time=0.0,
                           schedule=Schedule.direct(rider), capacity=3, onboard=0)
        newcomer = Request(release_time=0.0, request_id=2, source=1, destination=3)
        before = best_insertion(route, newcomer, oracle)
        assert before.feasible and route.profile(oracle).open_until == 2
        one_way.remove_edge(1, 2)
        # Stale structures keep answering as they did, and so does the snapshot.
        assert best_insertion(route, newcomer, oracle) is before
        oracle.rebuild()
        assert route.profile(oracle).open_until == 0
        after = best_insertion(route, newcomer, oracle)
        assert not after.feasible
        assert after == best_insertion(replace(route), newcomer, oracle)


def _count_builds(monkeypatch) -> list[None]:
    """One entry per full contraction from now on."""
    builds: list[None] = []
    build = ContractionHierarchy._build

    def counting(self):
        builds.append(None)
        build(self)

    monkeypatch.setattr(ContractionHierarchy, "_build", counting)
    return builds


def _scale(network, edges, factor: float) -> None:
    for u, v, cost in edges:
        network.add_edge(u, v, cost * factor)


class TestRebuildAdoption:
    """``rebuild()`` looks in the states ``repair()`` keeps before it builds,
    and adopts one only when a fresh build would reproduce it bit for bit."""

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_a_restored_zone_serves_the_state_it_started_on(self, backend, monkeypatch):
        network = _city(seed=31)
        oracle = DistanceOracle(network, backend=backend)
        initial = routing_data(network)
        zone = sorted(network.edges())[:40]
        _scale(network, zone, 3.0)
        oracle.rebuild()  # the wave arrives: a build
        _scale(network, zone, 1.0)  # ...and recedes
        oracle.cost(0, 5)
        generation = oracle.generation
        builds = _count_builds(monkeypatch)
        oracle.rebuild()
        assert builds == []
        assert routing_data(network) is initial
        assert oracle.generation != generation and oracle.cache_len == 0
        assert not oracle.is_stale and not oracle.serving_fallback
        fresh = ContractionHierarchy(CSRGraph.from_network(network))
        assert hierarchy_digest(fresh) == hierarchy_digest(initial.hierarchy)
        nodes = sorted(network.nodes())
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        want, _, _ = make_backend(backend, RoutingData(network)).many_to_many(pairs)
        got = {pair: oracle.cost(*pair) for pair in want}
        assert all(got[pair] == distance for pair, distance in want.items())

    def test_a_state_repair_built_is_adopted(self, monkeypatch):
        """Every state ``repair()`` serves is a build, so ``rebuild()``
        adopts it like one of its own."""
        network = _city(seed=32)
        oracle = DistanceOracle(network, backend="hub_label")
        edge = sorted(network.edges())[7:8]
        _scale(network, edge, 4.0)
        assert oracle.repair().mode == "rebuilt"
        repaired = routing_data(network)
        _scale(network, edge, 1.0)
        assert oracle.repair().mode == "snapshot"
        _scale(network, edge, 4.0)  # the repaired state's content and rows again
        assert CSRGraph.from_network(network) == repaired.csr
        builds = _count_builds(monkeypatch)
        oracle.rebuild()
        assert builds == []
        assert routing_data(network) is repaired

    def test_a_reopened_road_restores_the_content_but_not_the_rows(self, monkeypatch):
        """Closing and reopening a road moves it to the end of its row: the
        content signature is back, the CSR is not.  ``rebuild()`` builds
        fresh there; ``repair()``, whose held hierarchy answers the content
        exactly, still swaps."""
        builds = _count_builds(monkeypatch)
        for refresh in ("rebuild", "repair"):
            network = _city(seed=33)
            oracle = DistanceOracle(network, backend="ch")
            initial = routing_data(network)
            u, v, cost = next(iter(network.edges()))
            assert network.out_degree(u) > 1
            network.remove_edge(u, v)
            getattr(oracle, refresh)()
            network.add_edge(u, v, cost)
            now = CSRGraph.from_network(network)
            assert csr_content(now) == csr_content(initial.csr)
            assert now != initial.csr
            built = len(builds)
            if refresh == "rebuild":
                oracle.rebuild()
                assert len(builds) == built + 1
                assert routing_data(network) is not initial
            else:
                assert oracle.repair().mode == "snapshot"
                assert len(builds) == built
                assert routing_data(network) is initial

    def test_a_failed_rebuild_leaves_the_old_structures(self, monkeypatch):
        network = _city(seed=34)
        oracle = ChaosOracle(
            network,
            injector=FaultInjector(ChaosConfig(rebuild_failure_rate=1.0)),
            backend="hub_label",
        )
        initial = routing_data(network)
        before = oracle.cost(0, 5)
        zone = sorted(network.edges())[:40]
        _scale(network, zone, 3.0)
        generation = oracle.generation
        with pytest.raises(InjectedFaultError):
            oracle.rebuild()
        assert oracle.generation == generation and oracle.is_stale
        assert oracle.cost(0, 5) == before  # the stale structures still answer
        # A build that raises partway leaves the oracle -- and what it holds
        # -- as it was: once the zone is restored, the next rebuild adopts.
        network = _city(seed=36)
        oracle = DistanceOracle(network, backend="hub_label")
        initial = routing_data(network)
        zone = sorted(network.edges())[:40]
        generation = oracle.generation

        def crash(self):
            raise MemoryError("build crashed")

        monkeypatch.setattr(ContractionHierarchy, "_build", crash)
        _scale(network, zone, 3.0)
        with pytest.raises(MemoryError):
            oracle.rebuild()
        assert oracle.generation == generation and oracle.is_stale
        monkeypatch.undo()
        _scale(network, zone, 1.0)
        oracle.rebuild()
        assert routing_data(network) is initial

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("refresh", ("rebuild", "repair"))
    def test_a_refresh_signs_only_the_fresh_content(self, refresh, backend, monkeypatch):
        """A backend without a hierarchy signs nothing (it holds no state to
        adopt or swap back); a hierarchy backend signs the state the
        constructor served once, then only the content each refresh arrives
        at -- over a wave, its receding and a second wave."""
        signed: list[None] = []
        sign = shortest_path.csr_content

        def counting(csr):
            signed.append(None)
            return sign(csr)

        monkeypatch.setattr(shortest_path, "csr_content", counting)
        network = _city(seed=37)
        oracle = DistanceOracle(network, backend=backend)
        zone = sorted(network.edges())[:40]
        hierarchy = backend in ("ch", "hub_label")
        for factor, signatures in ((3.0, 2), (1.0, 1), (2.0, 1)):
            _scale(network, zone, factor)
            signed.clear()
            getattr(oracle, refresh)()
            assert len(signed) == (signatures if hierarchy else 0)

    @pytest.mark.parametrize("capacity", (shortest_path.SNAPSHOT_CAPACITY, 0))
    def test_the_memory_estimate_counts_the_held_states(self, capacity, monkeypatch):
        monkeypatch.setattr(shortest_path, "SNAPSHOT_CAPACITY", capacity)
        network = _city(seed=35)
        oracle = DistanceOracle(network, backend="hub_label")
        initial = routing_data(network)
        _scale(network, sorted(network.edges())[:40], 3.0)
        oracle.rebuild()
        serving = routing_data(network)
        held = initial.estimated_memory_bytes() if capacity else 0
        assert oracle.cache_len == 0
        assert oracle.estimated_memory_bytes() == serving.estimated_memory_bytes() + held
