"""The routing-backend protocol, and the oracle as its cache and counter.

Every backend -- and the Dijkstra fallback an oracle serves from while its
preprocessed structures are dirty -- answers ``one_to_one`` / ``many_to_many``
/ ``path`` in node identifiers, exactly, and hands back every other exact
distance its search established; the oracle caches all of it and counts the
work.  ``tests/golden/oracle_counters.json`` pins the counters of the
acceptance runs as they were before the protocol existed.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.exceptions import NetworkError, UnreachableError
from repro.experiments.harness import RunSpec, run
from repro.network.generators import grid_city
from repro.network.road_network import RoadNetwork
from repro.network.routing import (
    BACKEND_NAMES,
    CHBackend,
    GraphSearchBackend,
    HubLabelBackend,
    make_backend,
    routing_data,
)
from repro.network.shortest_path import DistanceOracle
from repro.workloads.presets import Workload

NUM_NODES = 14
#: What an oracle can be serving from: a named backend, or the fallback.
SERVING = (*BACKEND_NAMES, "fallback")
PROTOCOL = ("one_to_one", "many_to_many", "path", "estimated_memory_bytes")
NAMED_BACKENDS = (GraphSearchBackend, CHBackend, HubLabelBackend)

pair_lists = st.lists(
    st.tuples(st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)),
    min_size=1,
    max_size=12,
)


def _sparse_network(seed: int) -> RoadNetwork:
    """A random directed network, sparse enough to have unreachable pairs."""
    rng = random.Random(seed)
    network = RoadNetwork()
    for node in range(NUM_NODES):
        network.add_node(node, rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
    for u in range(NUM_NODES):
        for v in range(NUM_NODES):
            if u != v and rng.random() < 0.12:
                network.add_edge(u, v, rng.uniform(1.0, 100.0))
    return network


def _dijkstra(network: RoadNetwork, source: int) -> dict[int, float]:
    """The slow obvious reference: distances from ``source`` (inf if absent)."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for succ, weight in network.neighbors(node):
            if d + weight < dist.get(succ, math.inf):
                dist[succ] = d + weight
                heapq.heappush(heap, (d + weight, succ))
    return dist


def _assert_exact(network: RoadNetwork, learned: dict) -> None:
    for (source, target), distance in learned.items():
        want = _dijkstra(network, source).get(target, math.inf)
        assert distance == pytest.approx(want, abs=1e-6), (source, target)


def _oracle(network: RoadNetwork, serving: str, **options) -> DistanceOracle:
    if serving != "fallback":
        return DistanceOracle(network, backend=serving, **options)
    oracle = DistanceOracle(network, backend="hub_label", **options)
    oracle.enable_fallback()
    assert oracle.serving_fallback
    return oracle


class TestProtocolConformance:
    @pytest.mark.parametrize("backend", NAMED_BACKENDS)
    def test_each_backend_defines_the_protocol_itself(self, backend):
        """Each method resolves, through the MRO, to one of the classes the
        ledger's probe wraps by name -- never to a helper base it cannot see."""
        for method in PROTOCOL:
            owner = next(cls for cls in backend.__mro__ if method in vars(cls))
            assert owner in NAMED_BACKENDS, (method, owner)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50), pairs=pair_lists)
    def test_answers_and_extras_equal_a_fresh_dijkstra(self, name, seed, pairs):
        network = _sparse_network(seed)
        backend = make_backend(name, routing_data(network))
        assert backend.name == name and backend.estimated_memory_bytes() > 0
        pairs = pairs + pairs[:2]  # duplicates are legal input
        learned, searches, settled = backend.many_to_many(pairs)
        assert set(pairs) <= set(learned)
        assert 0 < searches <= len(set(pairs)) and settled >= 0
        _assert_exact(network, learned)
        for source, target in pairs:
            want = _dijkstra(network, source).get(target, math.inf)
            distance, settled, learned = backend.one_to_one(source, target)
            assert distance == pytest.approx(want, abs=1e-6)
            assert learned[(source, target)] == distance and settled >= 0
            _assert_exact(network, learned)
            nodes, settled, learned = backend.path(source, target)
            assert learned[(source, target)] == pytest.approx(want, abs=1e-6)
            _assert_exact(network, learned)
            if math.isinf(want):
                assert nodes is None
                continue
            assert nodes[0] == source and nodes[-1] == target
            legs = [network.edge_cost(a, b) for a, b in zip(nodes, nodes[1:])]
            assert sum(legs) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("serving", SERVING)
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50), pairs=pair_lists)
    def test_oracle_caches_everything_the_backend_returns(
        self, serving, seed, pairs
    ):
        network = _sparse_network(seed)
        oracle = _oracle(network, serving)
        # Record what reaches the oracle: the serving instance's answers, not
        # a search another backend runs on the way (``ch`` paths ask dijkstra).
        serving_backend = oracle._fallback or oracle._backend
        returned: dict = {}
        with pytest.MonkeyPatch.context() as patch:
            for method, slot in (("one_to_one", 2), ("many_to_many", 0), ("path", 2)):
                patch.setattr(
                    serving_backend,
                    method,
                    _recording(getattr(serving_backend, method), slot, returned),
                )
            for source, target in pairs:
                want = _dijkstra(network, source).get(target, math.inf)
                assert oracle.cost(source, target) == pytest.approx(want, abs=1e-6)
                if math.isinf(want):
                    with pytest.raises(UnreachableError):
                        oracle.path(source, target)
                else:
                    assert oracle.path(source, target)[-1] == target
            sources, targets = [s for s, _ in pairs], [t for _, t in pairs]
            oracle.prefetch(sources, targets)
            table = {(s, t): oracle.cost(s, t) for s in sources for t in targets}
        _assert_exact(network, table)
        if serving == "fallback":
            assert oracle.stats.fallback_queries > 0 or not returned
        # Every distance a backend handed over is now a cache hit.
        _assert_exact(network, returned)
        asked = [pair for pair in returned if pair[0] != pair[1]]
        before = oracle.stats.snapshot()
        for source, target in asked:
            assert oracle.cost(source, target) == returned[(source, target)]
        after = oracle.stats.snapshot()
        assert after["searches"] == before["searches"]
        assert after["cache_hits"] - before["cache_hits"] == len(asked)


def _recording(method, slot: int, returned: dict):
    def wrapper(*args):
        result = method(*args)
        returned.update(result[slot])
        return result

    return wrapper


UNKNOWN = 9999
ENTRY_POINTS = {
    "cost_self": lambda oracle: oracle.cost(UNKNOWN, UNKNOWN),
    "cost_from": lambda oracle: oracle.cost(UNKNOWN, 0),
    "cost_to": lambda oracle: oracle.cost(0, UNKNOWN),
    "lower_bound_from": lambda oracle: oracle.lower_bound(UNKNOWN, 0),
    "lower_bound_to": lambda oracle: oracle.lower_bound(0, UNKNOWN),
    "path_self": lambda oracle: oracle.path(UNKNOWN, UNKNOWN),
    "path_from": lambda oracle: oracle.path(UNKNOWN, 0),
    "path_to": lambda oracle: oracle.path(0, UNKNOWN),
    "prefetch_self": lambda oracle: oracle.prefetch([UNKNOWN], [UNKNOWN]),
    "prefetch_from": lambda oracle: oracle.prefetch([UNKNOWN], [0, 1]),
    "prefetch_to": lambda oracle: oracle.prefetch([0, 1], [UNKNOWN]),
}


class TestUnknownNodes:
    @pytest.mark.parametrize("cache_size", (1000, 0))
    @pytest.mark.parametrize("serving", SERVING)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_refuses_an_unknown_node(self, entry, serving, cache_size):
        """Regression: ``prefetch([x], [x])`` used to answer ``x -> x`` for
        a node that is not in the network, and an oracle without a cache
        returned from ``prefetch`` before it looked at the nodes."""
        oracle = _oracle(grid_city(4, 4), serving, cache_size=cache_size)
        with pytest.raises(NetworkError, match="unknown node 9999"):
            ENTRY_POINTS[entry](oracle)
        assert oracle.stats.searches == 0 and oracle.cache_len == 0


class TestMemoryEstimate:
    def test_every_backend_reports_what_it_holds(self):
        """Regression: ``hub_label`` reported less than ``ch``, although
        both keep the hierarchy.  Both hold the CSR, the hierarchy and the
        one label store; ``dijkstra`` holds the CSR alone."""
        network = grid_city(4, 4)
        held = {
            name: DistanceOracle(network, backend=name).estimated_memory_bytes()
            for name in BACKEND_NAMES
        }
        data = routing_data(network)
        assert held["dijkstra"] == data.csr.estimated_memory_bytes()
        assert held["dijkstra"] < held["ch"] == held["hub_label"]
        assert held["ch"] == data.estimated_memory_bytes()
        assert data.labeling.estimated_memory_bytes() > 0


# ---------------------------------------------------------------------- #
# the counters of the acceptance runs (each a SARD service replay of the
# golden file's ``spec``), recorded before the protocol existed
# ---------------------------------------------------------------------- #
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "oracle_counters.json").read_text()
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_counters_match_the_golden_runs(name, monkeypatch):
    oracles: list[DistanceOracle] = []
    fresh_oracle = Workload.fresh_oracle

    def keeping(self, **options):
        oracles.append(fresh_oracle(self, **options))
        return oracles[-1]

    monkeypatch.setattr(Workload, "fresh_oracle", keeping)
    run(RunSpec(
        algorithm="SARD", service_config=ServiceConfig(), **GOLDEN[name]["spec"]
    ))
    counters = [oracle.stats.snapshot() for oracle in oracles]
    assert counters == [GOLDEN[name]["counters"]]
