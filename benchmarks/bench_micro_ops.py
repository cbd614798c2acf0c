"""Micro-benchmarks of the core operators.

These complement the figure reproductions: they time the individual building
blocks (shortest-path queries, grid-index lookups, the candidate-vehicle
search, linear insertion, pairwise shareability tests, shareability-graph
construction, shareability loss and group enumeration) so regressions in any
substrate show up directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from _common import save_json, save_text
from repro.config import SimulationConfig
from repro.dispatch.base import DispatchContext, candidate_vehicles
from repro.grouping.additive_tree import build_groups
from repro.insertion.linear_insertion import best_insertion
from repro.insertion.pair_schedules import are_shareable
from repro.model.batch import Batch
from repro.model.request import Request
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState, Vehicle
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


def test_grid_index_k_nearest(benchmark, city):
    """The 24 nearest of 400 keys (about two per node) and every key tied
    with the 24th: one numpy pass over the index's coordinate array, then a
    ``math.hypot`` re-check of the shortlist, sorted by ``(distance, key)``."""
    index = GridIndex.for_network(city, cells_per_axis=24)
    rng = random.Random(2)
    nodes = list(city.nodes())
    for key in range(400):
        index.insert(key, *city.position(rng.choice(nodes)))
    queries = [(rng.uniform(0, 1800), rng.uniform(0, 1800)) for _ in range(200)]

    def run():
        return sum(len(index.k_nearest(x, y, 24)) for x, y in queries)

    assert benchmark(run) >= 24 * len(queries)


@pytest.mark.parametrize("reach", ["up to k", "more than k", "none", "none, some in time"])
def test_candidate_vehicles(benchmark, city, oracle, config, reach):
    """One offer's candidate search over a 400-vehicle fleet, ``max_candidates``
    24, by what the pick-up radius holds: at most 24 vehicles (returned as
    found), more (cut to the 24 nearest) or none (the fallback: those of the
    24 nearest of the fleet that make the pick-up at the city's top speed --
    none of them at no waiting time, the adjacent nodes' at 14 s)."""
    rng = random.Random(3)
    nodes = list(city.nodes())
    sources = rng.sample(nodes, 40)
    elsewhere = [node for node in nodes if node not in sources]
    vehicles = [Vehicle(vehicle_id=i, location=rng.choice(elsewhere)) for i in range(400)]
    index = GridIndex.for_network(city)
    for vehicle in vehicles:
        index.insert(vehicle.vehicle_id, *city.position(vehicle.location))
    # The radius is 10 m/s times the waiting time left: 150 m, 600 m, 1 m,
    # 140 m (a block is 150 m; the top speed is 12.5 m/s).
    max_wait = {"up to k": 15.0, "more than k": 60.0, "none": 0.0, "none, some in time": 14.0}
    offers = [
        Request(release_time=0.0, request_id=rid, source=source,
                destination=elsewhere[0], max_wait=max_wait[reach])
        for rid, source in enumerate(sources)
    ]
    context = DispatchContext(
        current_time=0.0, batch=Batch(0, 0.0, config.batch_period, tuple(offers)),
        pending=offers, vehicles=vehicles, network=city, oracle=oracle,
        vehicle_index=index, config=config, average_speed=10.0,
    )

    def run():
        return [candidate_vehicles(offer, context, max_candidates=24) for offer in offers]

    found = [len(candidates) for candidates in benchmark(run)]
    assert max(found) <= 24
    if reach == "more than k":
        assert min(found) == 24
    elif reach.startswith("none"):
        # The reach rule on the 24 nearest, sorted stably from fleet order.
        speed = oracle.top_speed()
        kept = []
        for offer in offers:
            nearest = sorted(vehicles, key=lambda v: city.euclidean(v.location, offer.source))
            kept.append(sum(
                city.euclidean(v.location, offer.source) / speed <= offer.latest_pickup + 1e-9
                for v in nearest[:24]
            ))
        assert found == kept
        assert (sum(found) > 0) == (reach == "none, some in time")
        assert max(found) < 24


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


def _best_insertion_cost(route, request, oracle, *, offer: str) -> tuple[float, float]:
    """Best-of-5 ``(microseconds, oracle queries)`` per ``best_insertion``
    call over 300 calls, by what the snapshot already knows:

    ``cold``  a fresh copy of the snapshot every time: price the route, then scan;
    ``warm``  one priced snapshot, a request it has not seen (300 requests
              that differ in their identifier only): scan;
    ``again`` one snapshot, the request it has answered: look the outcome up.
    """
    best = float("inf")
    for _ in range(5):
        routes = [replace(route) if offer == "cold" else route for _ in range(300)]
        offered = [
            replace(request, request_id=1000 + k) if offer == "warm" else request
            for k in range(300)
        ]
        if offer != "cold":
            route.profile(oracle)
            route.outcomes(oracle).clear()
        if offer == "again":
            best_insertion(route, request, oracle)
        asked = oracle.stats.queries
        start = time.perf_counter()
        for snapshot, candidate in zip(routes, offered):
            best_insertion(snapshot, candidate, oracle)
        best = min(best, (time.perf_counter() - start) / len(routes))
        queries = (oracle.stats.queries - asked) / len(routes)
    return best * 1e6, queries


def test_best_insertion_by_route_length(city, oracle):
    """us per ``best_insertion`` call against 0 / 2 / 4 / 6 / 8 stops.

    The ``feasible`` request has time to spare at every position; the
    ``late`` one is rejected at every position by its waiting limit, on the
    straight-line bound, so a priced plan refuses it without a query.  The
    second table puts a first offer to a priced plan (``warm``) next to the
    same request offered again to the unchanged snapshot, which is what a
    pending request is to a driving vehicle on every later tick: one look-up
    and no oracle query.  A route without stops keeps no outcomes -- its
    insertion *is* two look-ups -- so its two rows read the same.
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
        (f"{name}_{offer}_us", candidate, offer)
        for name, candidate in (("feasible", feasible), ("late", late))
        for offer in ("cold", "warm")
    ]
    rows, offers = [], []
    for stops in (0, 2, 4, 6, 8):
        while len(route.schedule) < stops:
            member = request(len(route.schedule))
            route = replace(route, schedule=best_insertion(route, member, oracle).schedule)
        assert best_insertion(route, feasible, oracle).feasible
        assert not best_insertion(route, late, oracle).feasible
        rows.append({"stops": stops} | {
            key: _best_insertion_cost(route, candidate, oracle, offer=offer)[0]
            for key, candidate, offer in columns
        })
        if stops in (0, 2, 6):
            for name, candidate in (("feasible", feasible), ("late", late)):
                for label, offer in (("first offer", "warm"), ("re-offer", "again")):
                    us, queries = _best_insertion_cost(route, candidate, oracle, offer=offer)
                    offers.append({"stops": stops, "request": name, "offer": label,
                                   "us": us, "oracle_queries": queries})
    lines = [
        "best_insertion, us per call by route length (best of 5 x 300 calls)",
        "stops " + " ".join(f"{key:>16}" for key, _, _ in columns),
        *(
            f"{row['stops']:>5} " + " ".join(f"{row[key]:>16.2f}" for key, _, _ in columns)
            for row in rows
        ),
        "",
        "first offer to a priced plan vs re-offer on the unchanged snapshot, per call",
        f"stops {'request':>9} {'offer':>12} {'us':>8} {'oracle queries':>15}",
        *(
            f"{row['stops']:>5} {row['request']:>9} {row['offer']:>12} "
            f"{row['us']:>8.2f} {row['oracle_queries']:>15.2f}"
            for row in offers
        ),
    ]
    save_text("micro_best_insertion", "\n".join(lines))
    save_json("micro_best_insertion",
              {"benchmark": "micro_best_insertion", "rows": rows, "offers": offers})
    # Linear, not cubic: eight stops may not cost a late pick-up 20x an idle car.
    assert rows[-1]["late_warm_us"] < 20 * rows[0]["late_warm_us"]
    for first, again in zip(offers[::2], offers[1::2]):
        if not first["stops"]:
            assert again["oracle_queries"] == first["oracle_queries"]
        elif first["request"] == "late":
            assert first["oracle_queries"] == again["oracle_queries"] == 0
        else:
            assert again["oracle_queries"] == 0 < first["oracle_queries"]


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
