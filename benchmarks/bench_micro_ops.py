"""Micro-benchmarks of the core operators.

These complement the figure reproductions: they time the individual building
blocks (shortest-path queries, grid-index lookups, linear insertion, pairwise
shareability tests, shareability-graph construction, shareability loss and
group enumeration) so regressions in any substrate show up directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from _common import save_json, save_text
from repro.config import SimulationConfig
from repro.grouping.additive_tree import build_groups
from repro.insertion.linear_insertion import best_insertion
from repro.insertion.pair_schedules import are_shareable
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState
from repro.network.generators import grid_city
from repro.network.grid_index import GridIndex
from repro.network.shortest_path import DistanceOracle
from repro.shareability.builder import DynamicShareabilityGraphBuilder
from repro.shareability.loss import residual_shareability_loss, shareability_loss


@pytest.fixture(scope="module")
def city():
    return grid_city(14, 14, block_length=150.0, perturbation=0.2, seed=21)


@pytest.fixture(scope="module")
def oracle(city):
    return DistanceOracle(city)


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(max_wait=150.0)


@pytest.fixture(scope="module")
def requests(city, oracle, config):
    rng = random.Random(5)
    nodes = list(city.nodes())
    result = []
    for rid in range(120):
        source, destination = rng.sample(nodes, 2)
        result.append(
            Request.create(
                request_id=rid, source=source, destination=destination,
                release_time=rng.uniform(0, 60), direct_cost=oracle.cost(source, destination),
                gamma=config.gamma, max_wait=config.max_wait,
            )
        )
    return result


def test_shortest_path_query(benchmark, city, oracle):
    rng = random.Random(1)
    nodes = list(city.nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(200)]

    def run():
        return sum(oracle.cost(u, v) for u, v in pairs)

    assert benchmark(run) > 0


def test_grid_index_radius_query(benchmark, city):
    index = GridIndex.for_network(city, cells_per_axis=24)
    rng = random.Random(2)
    for node in city.nodes():
        x, y = city.position(node)
        index.insert(node, x, y)
    queries = [(rng.uniform(0, 1800), rng.uniform(0, 1800), 400.0) for _ in range(200)]

    def run():
        return sum(len(index.query_radius(x, y, r)) for x, y, r in queries)

    benchmark(run)


def test_linear_insertion(benchmark, oracle, requests):
    base = RouteState(vehicle_id=0, origin=requests[0].source, departure_time=0.0,
                      schedule=Schedule.direct(requests[0]), capacity=4, onboard=0)

    def run():
        feasible = 0
        for request in requests[1:40]:
            if best_insertion(base, request, oracle).feasible:
                feasible += 1
        return feasible

    benchmark(run)


def _best_insertion_us(route, request, oracle, *, cold: bool) -> float:
    """Best-of-5 microseconds per ``best_insertion`` call over 300 calls.

    ``cold`` asks a fresh copy of the snapshot every time, so each call also
    prices the route; otherwise one snapshot answers all of them.
    """
    best = float("inf")
    for _ in range(5):
        routes = [replace(route) if cold else route for _ in range(300)]
        start = time.perf_counter()
        for snapshot in routes:
            best_insertion(snapshot, request, oracle)
        best = min(best, (time.perf_counter() - start) / len(routes))
    return best * 1e6


def test_best_insertion_by_route_length(city, oracle):
    """us per ``best_insertion`` call against 0 / 2 / 4 / 6 / 8 stops.

    The ``feasible`` request has time to spare at every position; the
    ``late`` one is rejected at every position by its waiting limit.  A
    dispatcher asks each snapshot about four times per batch, so the truth
    lies between the cold and the warm column.
    """
    rng = random.Random(9)
    nodes = list(city.nodes())

    def request(rid: int, *, max_wait: float = 1e6) -> Request:
        source, destination = rng.sample(nodes, 2)
        return Request.create(
            request_id=rid, source=source, destination=destination, release_time=0.0,
            direct_cost=oracle.cost(source, destination), gamma=50.0, max_wait=max_wait,
        )

    route = RouteState(vehicle_id=0, origin=nodes[0], departure_time=0.0,
                       schedule=Schedule.empty(), capacity=10, onboard=0)
    feasible = request(100)
    late = replace(feasible, request_id=101, max_wait=0.0)
    columns = [
        (f"{name}_{'cold' if cold else 'warm'}_us", candidate, cold)
        for name, candidate in (("feasible", feasible), ("late", late))
        for cold in (True, False)
    ]
    rows = []
    for stops in (0, 2, 4, 6, 8):
        while len(route.schedule) < stops:
            member = request(len(route.schedule))
            route = replace(route, schedule=best_insertion(route, member, oracle).schedule)
        assert best_insertion(route, feasible, oracle).feasible
        assert not best_insertion(route, late, oracle).feasible
        rows.append({"stops": stops} | {
            key: _best_insertion_us(route, candidate, oracle, cold=cold)
            for key, candidate, cold in columns
        })
    lines = [
        "best_insertion, us per call by route length (best of 5 x 300 calls)",
        "stops " + " ".join(f"{key:>16}" for key, _, _ in columns),
        *(
            f"{row['stops']:>5} " + " ".join(f"{row[key]:>16.2f}" for key, _, _ in columns)
            for row in rows
        ),
    ]
    save_text("micro_best_insertion", "\n".join(lines))
    save_json("micro_best_insertion", {"benchmark": "micro_best_insertion", "rows": rows})
    # Linear, not cubic: eight stops may not cost a late pick-up 20x an idle car.
    assert rows[-1]["late_warm_us"] < 20 * rows[0]["late_warm_us"]


def test_pairwise_shareability(benchmark, oracle, requests, config):
    pairs = list(zip(requests[:40], requests[40:80]))

    def run():
        return sum(
            are_shareable(a, b, oracle, capacity=config.capacity) for a, b in pairs
        )

    benchmark(run)


def test_shareability_graph_build(benchmark, city, oracle, config, requests):
    def run():
        builder = DynamicShareabilityGraphBuilder(
            network=city, oracle=oracle, config=config,
        )
        builder.update(requests[:80])
        return builder.graph.num_edges

    benchmark(run)


def test_shareability_loss_evaluation(benchmark, city, oracle, config, requests):
    builder = DynamicShareabilityGraphBuilder(network=city, oracle=oracle, config=config)
    builder.update(requests[:80])
    graph = builder.graph
    rng = random.Random(3)
    nodes = [rid for rid in graph.request_ids() if graph.degree(rid) > 0]
    groups = []
    for _ in range(100):
        seed = rng.choice(nodes)
        neighbour = rng.choice(sorted(graph.neighbors(seed)))
        groups.append([seed, neighbour])

    def run():
        total = 0.0
        for group in groups:
            total += shareability_loss(graph, group)
            total += residual_shareability_loss(graph, group)
        return total

    benchmark(run)


def test_group_enumeration(benchmark, city, oracle, config, requests):
    builder = DynamicShareabilityGraphBuilder(network=city, oracle=oracle, config=config)
    builder.update(requests[:60])
    graph = builder.graph
    route = RouteState(vehicle_id=0, origin=0, departure_time=0.0,
                       schedule=Schedule.empty(), capacity=3, onboard=0)

    def run():
        groups = build_groups(requests[:60], graph, route, oracle, max_group_size=3)
        return len(groups)

    benchmark(run)
