"""Backend path-parity suite: exact ``path()`` on every routing backend.

There is one path search -- the CSR Dijkstra with parent pointers of
``GraphSearchBackend`` -- and the preprocessed backends run it too (their
hierarchy records no paths), learning the asked pair only.  The contract,
checked against the ``dijkstra`` reference on grid and ring-radial cities,
random directed networks and tie-heavy equal-weight graphs: the returned
node sequence starts at ``u``, ends at ``v``, follows only real network
edges, and its summed edge cost equals ``cost(u, v)`` exactly -- with
``UnreachableError`` raised uniformly for unreachable pairs; ``dijkstra``,
``ch`` and ``hub_label`` return the *same* sequence, a preprocessed
``path()`` joins no label, and it follows a ``rebuild()`` / ``repair()``.

On the same network families, ``ch`` and ``hub_label`` *distances* -- joins
of per-node hub labels from the one ``HubLabeling`` store every oracle over
the network shares, labelled in full at set-up by one min-plus pass per
direction -- equal a fresh Dijkstra, each other and a reference join of two
complete labels bit for bit, whatever was asked before; every label holds
its node's stall-tested upward distances, whatever the source block; no join
writes to the store or labels a node again; and no label outlives a
``rebuild()`` / ``repair()``.  The one-pass joins also equal the
reference joins on every pair of a hierarchy built after a shortcut, of the
676-node city in each ``rush_hour`` wave state and of small tie-prone
digraphs.
"""

from __future__ import annotations

import math
import operator
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import UnreachableError
from repro.network.generators import grid_city, make_city, ring_radial_city
from repro.network.road_network import RoadNetwork
from repro.network.routing import (
    ContractionHierarchy,
    CSRGraph,
    HubLabeling,
    hub_labels,
    make_backend,
    routing_data,
)
from repro.network.shortest_path import DistanceOracle
from repro.scenarios.presets import make_scenario

from ch_reference import stall_tested_label, upward_label

ALL_BACKENDS = ("dijkstra", "ch", "hub_label")


def _random_network(num_nodes: int, density: float, seed: int) -> RoadNetwork:
    rng = random.Random(seed)
    network = RoadNetwork()
    for node in range(num_nodes):
        network.add_node(node, rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < density:
                network.add_edge(u, v, rng.uniform(1.0, 100.0))
    return network


def _tie_grid(side: int) -> RoadNetwork:
    """Equal-weight grid: every shortest path has many equal-cost siblings."""
    network = RoadNetwork()
    for node in range(side * side):
        network.add_node(node, float(node % side) * 100.0, float(node // side) * 100.0)
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c < side - 1:
                network.add_edge(i, i + 1, 10.0, bidirectional=True)
            if r < side - 1:
                network.add_edge(i, i + side, 10.0, bidirectional=True)
    return network


def _assert_exact_path(network: RoadNetwork, oracle: DistanceOracle,
                       reference: DistanceOracle, u: int, v: int) -> None:
    expected = reference.cost(u, v)
    path = oracle.path(u, v)
    assert path[0] == u and path[-1] == v
    total = 0.0
    for a, b in zip(path, path[1:]):
        assert network.has_edge(a, b), (oracle.backend_name, u, v, a, b)
        total += network.edge_cost(a, b)
    assert total == pytest.approx(expected, abs=1e-9), (oracle.backend_name, u, v)
    # The facade must agree with itself, not just with the reference.
    assert oracle.cost(u, v) == pytest.approx(total, abs=1e-9)


class TestPathParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_grid_city_paths_exact(self, backend):
        city = grid_city(7, 7, block_length=120.0, perturbation=0.3, seed=17)
        reference = DistanceOracle(city, cache_size=0)
        oracle = DistanceOracle(city, cache_size=0, backend=backend)
        rng = random.Random(5)
        nodes = list(city.nodes())
        for u, v in (tuple(rng.sample(nodes, 2)) for _ in range(80)):
            _assert_exact_path(city, oracle, reference, u, v)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_ring_radial_city_paths_exact(self, backend):
        city = ring_radial_city(4, 12)
        reference = DistanceOracle(city, cache_size=0)
        oracle = DistanceOracle(city, cache_size=0, backend=backend)
        rng = random.Random(6)
        nodes = list(city.nodes())
        for u, v in (tuple(rng.sample(nodes, 2)) for _ in range(80)):
            _assert_exact_path(city, oracle, reference, u, v)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_tie_heavy_equal_weight_paths_exact(self, backend):
        network = _tie_grid(5)
        reference = DistanceOracle(network, cache_size=0)
        oracle = DistanceOracle(network, cache_size=0, backend=backend)
        for u in range(25):
            for v in range(25):
                if u != v:
                    _assert_exact_path(network, oracle, reference, u, v)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_unreachable_pair_raises(self, backend):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 10.0, 0.0)
        network.add_node(2, 20.0, 0.0)
        network.add_edge(0, 1, 5.0)  # node 2 is isolated
        oracle = DistanceOracle(network, backend=backend)
        with pytest.raises(UnreachableError):
            oracle.path(0, 2)
        assert math.isinf(oracle.cost(0, 2))
        assert oracle.path(0, 1) == [0, 1]

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_nodes=st.integers(min_value=6, max_value=22),
        density=st.floats(min_value=0.05, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_paths_match_dijkstra(self, num_nodes, density, seed):
        network = _random_network(num_nodes, density, seed)
        reference = DistanceOracle(network, cache_size=0)
        oracles = [
            DistanceOracle(network, cache_size=0, backend=b)
            for b in ("ch", "hub_label")
        ]
        for u in range(num_nodes):
            for v in range(num_nodes):
                if u == v:
                    continue
                expected = reference.cost(u, v)
                for oracle in oracles:
                    if math.isinf(expected):
                        with pytest.raises(UnreachableError):
                            oracle.path(u, v)
                    else:
                        _assert_exact_path(network, oracle, reference, u, v)


class TestNativePreprocessedPaths:
    def test_path_distance_lands_in_pair_cache(self, grid_network):
        oracle = DistanceOracle(grid_network, backend="ch")
        path = oracle.path(0, 35)
        searches = oracle.stats.searches
        cost = oracle.cost(0, 35)
        assert oracle.stats.searches == searches  # answered from the cache
        assert oracle.stats.cache_hits >= 1
        assert cost == pytest.approx(
            sum(grid_network.edge_cost(a, b) for a, b in zip(path, path[1:]))
        )


class TestCSRSettledGuard:
    def test_sssp_never_resettles_on_equal_distance_ties(self):
        """Regression: duplicate heap entries tying on distance must not
        re-settle a node (it inflated ``settled_nodes`` accounting and redid
        cache writes)."""
        network = _tie_grid(5)
        csr = CSRGraph.from_network(network)
        for source in range(csr.num_nodes):
            dist, settled = csr.sssp(source)
            assert len(settled) == len(set(settled))
            assert len(settled) == csr.num_nodes  # connected grid
        # Also with early termination on a target set.
        _, settled = csr.sssp(0, targets={csr.num_nodes - 1})
        assert len(settled) == len(set(settled))

    def test_settled_count_not_inflated_through_oracle(self):
        network = _tie_grid(4)
        oracle = DistanceOracle(network, cache_size=0)
        oracle.cost(0, 15)
        assert oracle.stats.settled_nodes <= network.num_nodes


def _with_isolated_node(network: RoadNetwork) -> RoadNetwork:
    network.add_node(network.num_nodes, -50.0, -50.0)
    return network


#: One network per family of the path tests above, plus unreachable pairs.
FAMILIES = {
    "grid": lambda: grid_city(5, 5, block_length=120.0, perturbation=0.3, seed=17),
    "ring_radial": lambda: ring_radial_city(3, 8),
    "random": lambda: _random_network(20, 0.15, 4),
    "tie_heavy": lambda: _tie_grid(5),
    "unreachable": lambda: _with_isolated_node(_random_network(14, 0.08, 9)),
}


def _all_pairs(network: RoadNetwork) -> list[tuple[int, int]]:
    nodes = sorted(network.nodes())
    return [(u, v) for u in nodes for v in nodes]


def _fresh(network: RoadNetwork, name: str, pairs) -> dict[tuple[int, int], float]:
    """``pairs`` answered by a new backend ``name``."""
    learned, _, _ = make_backend(name, routing_data(network)).many_to_many(pairs)
    return {pair: learned[pair] for pair in pairs}


def _table(oracle: DistanceOracle, nodes) -> dict[tuple[int, int], float]:
    """Every ``nodes`` x ``nodes`` cost, asked of ``oracle`` one pair at a time."""
    return {(u, v): oracle.cost(u, v) for u in nodes for v in nodes}


def _reference_join(hierarchy, source: int, target: int) -> float:
    """The minimum of ``d_f(h) + d_b(h)`` over the hubs two complete labels
    share."""
    forward = upward_label(hierarchy, source, backward=False)
    backward = upward_label(hierarchy, target, backward=True)
    return min(
        (d + backward[hub] for hub, d in forward.items() if hub in backward),
        default=math.inf,
    )


def _shortcut(network: RoadNetwork) -> None:
    """Give the costliest edge a parallel at a fiftieth of its cost: a
    shortcut for many pairs."""
    u, v, cost = max(network.edges(), key=lambda edge: edge[2])
    network.add_edge(u, v, cost / 50.0)


def _count_label_passes(monkeypatch) -> list[tuple[ContractionHierarchy, bool]]:
    """``(hierarchy, backward)`` per label pass run from now on, in order."""
    labelled: list[tuple[ContractionHierarchy, bool]] = []
    complete_labels = hub_labels._complete_labels

    def counting(hierarchy, *, backward):
        labelled.append((hierarchy, backward))
        return complete_labels(hierarchy, backward=backward)

    monkeypatch.setattr(hub_labels, "_complete_labels", counting)
    return labelled


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestChDistancesAreLabelJoins:
    def test_all_pairs_equal_dijkstra_and_hub_label_bit_for_bit(self, family):
        network = FAMILIES[family]()
        pairs = _all_pairs(network)
        got = _fresh(network, "ch", pairs)
        assert got == _fresh(network, "hub_label", pairs)  # inf and s == t too
        reference = _fresh(network, "dijkstra", pairs)
        for pair in pairs:  # approx(inf) matches inf only
            assert got[pair] == pytest.approx(reference[pair], abs=1e-9), pair
        assert all(got[(u, v)] == 0.0 for u, v in pairs if u == v)
        if family == "unreachable":
            assert any(math.isinf(d) for d in got.values())

    @pytest.mark.parametrize("order", ("sorted", "shuffled", "reversed"))
    def test_every_pair_is_the_join_of_two_complete_labels(self, family, order):
        network = FAMILIES[family]()
        data = routing_data(network)
        n = data.csr.num_nodes
        pairs = [(s, t) for s in range(n) for t in range(n)]
        if order == "shuffled":
            pairs = random.Random(5).sample(pairs, len(pairs))
        elif order == "reversed":
            pairs.reverse()
        labeling = make_backend("ch", data).labeling
        for s, t in pairs:
            got = labeling.query(s, t)[0]
            assert got == _reference_join(data.hierarchy, s, t), (s, t)

    def test_answers_do_not_depend_on_what_was_asked_before(self, family):
        network = FAMILIES[family]()
        pairs = _all_pairs(network)
        shuffled = random.Random(3).sample(pairs, len(pairs))
        warm = _fresh(network, "ch", pairs)
        assert _fresh(network, "ch", shuffled) == warm
        backend = make_backend("ch", routing_data(network))
        for source, target in shuffled[:40]:
            cold, _, _ = make_backend("ch", backend.data).one_to_one(source, target)
            assert cold == warm[(source, target)]
            assert backend.one_to_one(source, target)[0] == cold

    @pytest.mark.parametrize("mutated", (False, True))
    @pytest.mark.parametrize("block", (3, hub_labels.SOURCE_BLOCK))
    def test_one_pass_labels_are_stall_tested_upward_distances(
        self, family, block, mutated, monkeypatch
    ):
        # Blocks of three sources cross many block boundaries and cut most
        # levels short; the shipped block holds every node of these networks.
        monkeypatch.setattr(hub_labels, "SOURCE_BLOCK", block)
        network = FAMILIES[family]()
        if mutated:
            _shortcut(network)
        hierarchy = ContractionHierarchy(CSRGraph.from_network(network))
        store = HubLabeling(hierarchy)
        for backward, labels in ((False, store.forward), (True, store.backward)):
            assert len(labels) == hierarchy.csr.num_nodes
            for index, label in enumerate(labels):
                want = stall_tested_label(hierarchy, index, backward=backward)
                assert label == want, (index, backward)
                assert label[index] == 0.0

    def test_no_node_is_settled_twice_per_direction_per_store(
        self, family, monkeypatch
    ):
        labelled = _count_label_passes(monkeypatch)
        network = FAMILIES[family]()
        data = routing_data(network)
        store = data.labeling
        endpoints = sorted(network.nodes())[:6]
        pairs = [(u, v) for u in endpoints for v in endpoints]
        for name in ("ch", "hub_label"):
            backend = make_backend(name, data)
            backend.many_to_many(pairs * 2)
            for source, target in random.Random(7).sample(_all_pairs(network), 60):
                _, settled, _ = backend.one_to_one(source, target)
                # A join walks each entry of the smaller label once.
                s, t = data.csr.index_of[source], data.csr.index_of[target]
                assert settled == min(len(store.forward[s]), len(store.backward[t]))
        # Each direction of every node is labelled once, at set-up.
        assert labelled == [(store.hierarchy, False), (store.hierarchy, True)]

    def test_queries_leave_the_shared_store_as_it_was(self, family):
        network = FAMILIES[family]()
        data = routing_data(network)
        store = data.labeling
        labels = [*store.forward, *store.backward]
        copies = [dict(label) for label in labels]
        nodes = sorted(network.nodes())
        for name in ("ch", "hub_label"):
            oracle = DistanceOracle(network, backend=name)
            oracle.prefetch(nodes[:3], nodes[3:7])
            _table(oracle, nodes[:6])
            make_backend(name, data).many_to_many(_all_pairs(network))
        # The same label objects, holding the same entries: no join writes.
        assert all(map(operator.is_, labels, [*store.forward, *store.backward]))
        assert [*store.forward, *store.backward] == copies

    def test_hub_label_oracles_share_one_store_labelled_at_set_up(
        self, family, monkeypatch
    ):
        labelled = _count_label_passes(monkeypatch)
        network = FAMILIES[family]()
        nodes = sorted(network.nodes())
        first = DistanceOracle(network, backend="ch")
        store = first._backend.labeling
        # Every node, both directions, before the first question.
        assert len(store.forward) == len(store.backward) == len(nodes)
        second = DistanceOracle(network, backend="hub_label")
        assert second._backend.labeling is store is routing_data(network).labeling
        assert _table(first, nodes) == _table(second, nodes)
        assert labelled == [(store.hierarchy, False), (store.hierarchy, True)]

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_a_batch_learns_exactly_the_asked_pairs(self, family, backend):
        network = FAMILIES[family]()
        nodes = sorted(network.nodes())
        # A sparse batch: neither the sources x targets product nor a diagonal.
        pairs = [(nodes[0], nodes[5]), (nodes[1], nodes[6]), (nodes[2], nodes[2])]
        learned, searches, _ = make_backend(
            backend, routing_data(network)
        ).many_to_many(pairs + pairs[:1])
        assert list(learned) == pairs and searches == len(pairs)

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    @pytest.mark.parametrize("refresh", ("rebuild", "repair"))
    def test_no_search_space_survives_a_refresh(self, family, refresh, backend):
        network = FAMILIES[family]()
        nodes = sorted(network.nodes())
        oracle = DistanceOracle(network, backend=backend)
        before = _table(oracle, nodes)
        u, v, cost = max(network.edges(), key=lambda edge: edge[2])
        network.add_edge(u, v, cost / 50.0)  # now a shortcut for many pairs
        getattr(oracle, refresh)()
        after = _table(oracle, nodes)
        assert after != before
        for pair, want in _fresh(network, "dijkstra", _all_pairs(network)).items():
            assert after[pair] == pytest.approx(want, abs=1e-9), pair

    @pytest.mark.parametrize("refresh", ("rebuild", "repair", "fallback"))
    def test_a_refreshed_oracle_answers_from_the_new_store(self, family, refresh):
        network = FAMILIES[family]()
        nodes = sorted(network.nodes())
        oracle = DistanceOracle(network, backend="ch")
        old = oracle._backend.labeling
        before = _table(oracle, nodes)
        _shortcut(network)
        if refresh == "fallback":
            oracle.enable_fallback()
            _table(oracle, nodes)  # answered by the fallback's Dijkstra
        if refresh == "rebuild":
            oracle.rebuild()
        else:
            assert oracle.repair().mode == "rebuilt"
        backend = oracle._backend
        assert backend.labeling is not old
        assert backend.labeling is backend.data.labeling is routing_data(network).labeling
        assert backend.labeling.hierarchy is backend.data.hierarchy
        fresh = ContractionHierarchy(CSRGraph.from_network(network))
        assert backend.data.hierarchy.rank == fresh.rank
        after = _table(oracle, nodes)
        assert after != before
        for pair, want in _fresh(network, "dijkstra", _all_pairs(network)).items():
            assert after[pair] == pytest.approx(want, abs=1e-9), pair


def _all_joins(forward, backward) -> np.ndarray:
    """``[s, t]``: the least ``d_f(h) + d_b(h)`` over the hubs the labels
    ``forward[s]`` and ``backward[t]`` share -- ``_reference_join`` for every
    pair at once, in the same float additions."""
    n = len(forward)
    far = np.full((n, n), math.inf)
    for target, label in enumerate(backward):
        far[target, list(label)] = list(label.values())
    return np.array([
        (np.array(list(label.values()))[None, :] + far[:, list(label)]).min(axis=1)
        for label in forward
    ])


def _assert_one_pass_joins_are_reference_joins(hierarchy) -> None:
    store = HubLabeling(hierarchy)
    n = hierarchy.csr.num_nodes
    reference = [
        [upward_label(hierarchy, index, backward=backward) for index in range(n)]
        for backward in (False, True)
    ]
    assert np.array_equal(_all_joins(store.forward, store.backward), _all_joins(*reference))


@st.composite
def _tie_prone_digraphs(draw) -> RoadNetwork:
    """Up to 12 nodes, weights from a few decimals: many equal-cost paths,
    and sums that round differently when they are added in another order."""
    num_nodes = draw(st.integers(2, 12))
    arcs = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1))
    edges = draw(st.dictionaries(
        arcs.filter(lambda arc: arc[0] != arc[1]),
        st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 1.1)),
        max_size=4 * num_nodes,
    ))
    network = RoadNetwork()
    for node in range(num_nodes):
        network.add_node(node, float(node), 0.0)
    for (u, v), cost in edges.items():
        network.add_edge(u, v, cost)
    return network


class TestOnePassLabelsJoinLikeSweptOnes:
    """The store labels every node with one min-plus pass per direction, not
    with sweeps.  Its labels may differ from the reference sweeps' by hubs no
    shortest path uses; its joins equal ``_reference_join`` bit for bit, for
    every pair."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("mutated", (False, True))
    def test_every_family_before_and_after_a_shortcut(self, family, mutated):
        network = FAMILIES[family]()
        if mutated:
            _shortcut(network)
        _assert_one_pass_joins_are_reference_joins(
            ContractionHierarchy(CSRGraph.from_network(network))
        )

    def test_the_676_node_city_in_every_rush_hour_wave_state(self):
        city = make_city("nyc", scale=1.0)
        events = make_scenario("rush_hour", city, horizon=1000.0).events_builder()
        world = SimpleNamespace(network=city, now=0.0, record=lambda *args: None)
        # Free flow, core slowed, core and ring slowed, ring slowed.
        for event in [None, *sorted(events, key=lambda event: event.time)[:3]]:
            if event is not None:
                assert event.apply(world) > 0
            _assert_one_pass_joins_are_reference_joins(
                ContractionHierarchy(CSRGraph.from_network(city))
            )

    @settings(max_examples=150, deadline=None)
    @given(network=_tie_prone_digraphs())
    def test_tie_prone_digraphs(self, network):
        _assert_one_pass_joins_are_reference_joins(
            ContractionHierarchy(CSRGraph.from_network(network))
        )


def _path_or_none(oracle: DistanceOracle, u: int, v: int) -> list[int] | None:
    try:
        return oracle.path(u, v)
    except UnreachableError:
        return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestOnePathSearch:
    def test_three_backends_return_the_identical_node_sequence(self, family):
        network = FAMILIES[family]()
        reference = DistanceOracle(network, cache_size=0)
        oracles = [DistanceOracle(network, backend=b) for b in ("ch", "hub_label")]
        reachable = 0
        for u, v in _all_pairs(network):
            want = _path_or_none(reference, u, v)
            reachable += want is not None
            for oracle in oracles:
                assert _path_or_none(oracle, u, v) == want, (oracle.backend_name, u, v)
        assert reachable > network.num_nodes  # more than the s == t diagonal

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_path_sweeps_no_label_and_learns_the_asked_pair(
        self, family, backend, monkeypatch
    ):
        network = FAMILIES[family]()
        oracle = DistanceOracle(network, backend=backend)
        reference = DistanceOracle(network, cache_size=0)
        joins: list[tuple[int, int]] = []
        join = HubLabeling.query
        monkeypatch.setattr(
            HubLabeling, "query", lambda store, s, t: joins.append((s, t)) or join(store, s, t)
        )
        for u, v in random.Random(11).sample(_all_pairs(network), 30):
            if u == v or math.isinf(reference.cost(u, v)):
                continue
            cached, searches = oracle.cache_len, oracle.stats.searches
            path = oracle.path(u, v)
            assert oracle.cache_len == cached + 1
            # The one new entry is the asked pair, at the path's edge sum.
            total = 0.0
            for a, b in zip(path, path[1:]):
                total += network.edge_cost(a, b)
            assert oracle.cost(u, v) == total
            assert oracle.stats.searches == searches + 1  # the path's; cost() hit
        assert joins == []

    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    @pytest.mark.parametrize("refresh", ("rebuild", "repair"))
    def test_path_avoids_an_edge_closed_before_a_refresh(
        self, family, refresh, backend
    ):
        network = FAMILIES[family]()
        oracle = DistanceOracle(network, backend=backend)
        nodes = sorted(network.nodes())
        u, v = next(
            (u, v)
            for u in nodes
            for v in reversed(nodes)
            if len(_path_or_none(oracle, u, v) or ()) > 2
        )
        before = oracle.path(u, v)
        a, b = before[0], before[1]
        network.remove_edge(a, b)
        getattr(oracle, refresh)()
        after = _path_or_none(oracle, u, v)
        assert after == _path_or_none(DistanceOracle(network, cache_size=0), u, v)
        assert after != before
        if after is not None:
            assert (a, b) not in zip(after, after[1:])
