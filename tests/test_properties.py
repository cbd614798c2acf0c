"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from repro.config import ChaosConfig, SimulationConfig
from repro.dispatch.base import DispatchContext, candidate_vehicles
from repro.insertion.linear_insertion import InsertionOutcome, best_insertion
from repro.insertion.pair_schedules import best_pair_schedule, pair_orderings
from repro.model.batch import Batch
from repro.model.request import Request
from repro.model.schedule import Schedule, Waypoint, WaypointKind
from repro.model.vehicle import RouteState, Vehicle
from repro.network.generators import grid_city
from repro.network.grid_index import GridIndex
from repro.network.shortest_path import DistanceOracle
from repro.resilience.faults import ChaosOracle, FaultInjector
from repro.shareability.cliques import clique_partition_upper_bound, greedy_clique_partition
from repro.shareability.graph import ShareabilityGraph
from repro.shareability.loss import residual_shareability_loss, shareability_loss

# A single deterministic city shared by every property test (module scope keeps
# hypothesis example generation fast).
_CITY = grid_city(6, 6, block_length=100.0, speed=10.0, perturbation=0.0, seed=0)
_ORACLE = DistanceOracle(_CITY)
_NODES = list(_CITY.nodes())

node_ids = st.sampled_from(_NODES)


def _request(rid: int, source: int, destination: int, release: float, gamma: float) -> Request:
    return Request.create(
        request_id=rid, source=source, destination=destination,
        release_time=release, direct_cost=_ORACLE.cost(source, destination),
        gamma=gamma, max_wait=180.0,
    )


request_strategy = st.builds(
    _request,
    rid=st.integers(min_value=1, max_value=10_000),
    source=node_ids,
    destination=node_ids,
    release=st.floats(min_value=0.0, max_value=60.0),
    gamma=st.floats(min_value=1.1, max_value=2.5),
).filter(lambda r: r.source != r.destination)


class TestShortestPathProperties:
    @given(source=node_ids, middle=node_ids, target=node_ids)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, source, middle, target):
        direct = _ORACLE.cost(source, target)
        detour = _ORACLE.cost(source, middle) + _ORACLE.cost(middle, target)
        assert direct <= detour + 1e-9

    @given(source=node_ids, target=node_ids)
    @settings(max_examples=40, deadline=None)
    def test_cost_non_negative_and_zero_on_diagonal(self, source, target):
        cost = _ORACLE.cost(source, target)
        assert cost >= 0.0
        if source == target:
            assert cost == 0.0


class TestScheduleProperties:
    @given(request=request_strategy, origin=node_ids)
    @settings(max_examples=60, deadline=None)
    def test_direct_schedule_costs_deadhead_plus_trip(self, request, origin):
        schedule = Schedule.direct(request)
        cost = schedule.travel_cost(_ORACLE, origin)
        expected = _ORACLE.cost(origin, request.source) + request.direct_cost
        assert cost == pytest.approx(expected)

    @given(request=request_strategy)
    @settings(max_examples=60, deadline=None)
    def test_feasible_evaluation_has_monotone_arrivals(self, request):
        schedule = Schedule.direct(request)
        evaluation = schedule.evaluate(
            _ORACLE, request.source, request.release_time, capacity=4
        )
        if evaluation.feasible:
            arrivals = evaluation.arrival_times
            assert all(a <= b + 1e-9 for a, b in zip(arrivals, arrivals[1:]))
            assert arrivals[-1] <= request.deadline + 1e-6

    @given(first=request_strategy, second=request_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_insertion_preserves_structure(self, first, second):
        if first.request_id == second.request_id:
            return
        route = RouteState(
            vehicle_id=0, origin=first.source, departure_time=first.release_time,
            schedule=Schedule.direct(first), capacity=4, onboard=0,
        )
        outcome = best_insertion(route, second, _ORACLE)
        if not outcome.feasible:
            return
        schedule = outcome.schedule
        assert schedule.satisfies_order()
        assert schedule.request_ids() == {first.request_id, second.request_id}
        evaluation = schedule.evaluate(
            _ORACLE, route.origin, route.departure_time, capacity=4
        )
        assert evaluation.feasible
        assert outcome.delta_cost >= -1e-9


# --------------------------------------------------------------------------- #
# Differential tests: the insertion kernels against the obvious brute force.
# --------------------------------------------------------------------------- #
def _reference_best_insertion(route, request, oracle) -> InsertionOutcome:
    """The pre-kernel ``best_insertion``: build, order-check and re-simulate
    every ``(i, j)`` candidate through ``Schedule.evaluate``."""
    schedule = route.schedule
    n = len(schedule)
    direct_pickup = route.departure_time + oracle.cost(route.origin, request.source)
    if n == 0 and direct_pickup > request.latest_pickup + 1e-9:
        return InsertionOutcome.infeasible(schedule)
    base_cost = schedule.travel_cost(oracle, route.origin)
    best = InsertionOutcome.infeasible(schedule)
    for pickup_pos in range(route.min_insert_position, n + 1):
        for dropoff_pos in range(pickup_pos + 1, n + 2):
            candidate = schedule.with_insertion(request, pickup_pos, dropoff_pos)
            evaluation = candidate.evaluate(
                oracle, route.origin, route.departure_time,
                capacity=route.capacity, initial_load=route.onboard,
            )
            if not evaluation.feasible:
                continue
            delta = evaluation.travel_cost - base_cost
            if delta < best.delta_cost - 1e-12:
                best = InsertionOutcome(
                    feasible=True, delta_cost=delta, schedule=candidate,
                    pickup_position=pickup_pos, dropoff_position=dropoff_pos,
                    total_cost=evaluation.travel_cost,
                )
    return best


class KineticTreeScheduler:
    """Exact reference scheduler: depth-first branch-and-bound over every
    feasible ordering of a vehicle's stops plus new requests' stops.

    Huang et al. keep every feasible stop ordering in a "kinetic tree" so
    that an insertion always yields the optimal schedule; this enumerates
    the same orderings.  It is exponential in the number of stops, so it
    refuses more than ``max_stops``.  Existing stops may be reordered
    freely (pick-up before drop-off); a committed next stop stays first.
    """

    def __init__(self, oracle: DistanceOracle, *, max_stops: int = 14) -> None:
        self._oracle = oracle
        self._max_stops = max_stops

    def optimal_schedule(self, route: RouteState, new_requests) -> Schedule | None:
        """Best feasible ordering, or ``None`` when no ordering is feasible."""
        pending: list[Waypoint] = list(route.schedule.waypoints)
        for request in new_requests:
            pending.append(Waypoint(request, WaypointKind.PICKUP))
            pending.append(Waypoint(request, WaypointKind.DROPOFF))
        if len(pending) > self._max_stops:
            raise ValueError(
                f"kinetic-tree search limited to {self._max_stops} stops, "
                f"got {len(pending)}"
            )
        if not pending:
            return Schedule.empty()

        committed: list[Waypoint] = []
        if route.min_insert_position > 0 and route.schedule:
            committed = [route.schedule[0]]
            pending.remove(route.schedule[0])

        oracle = self._oracle
        best_cost = math.inf
        best_order: list[Waypoint] | None = None
        # Drop-offs without a pending pick-up belong to onboard riders.
        pickup_pending = {
            wp.request.request_id for wp in pending if wp.kind is WaypointKind.PICKUP
        }

        def recurse(order, remaining, node, clock, load, cost, picked) -> None:
            nonlocal best_cost, best_order
            if cost >= best_cost:
                return
            if not remaining:
                best_cost = cost
                best_order = list(order)
                return
            for index, wp in enumerate(remaining):
                rid = wp.request.request_id
                if (
                    wp.kind is WaypointKind.DROPOFF
                    and rid in pickup_pending
                    and rid not in picked
                ):
                    continue
                leg = oracle.cost(node, wp.node)
                if math.isinf(leg):
                    continue
                arrival = max(clock + leg, wp.earliest_service)
                if arrival > wp.deadline + 1e-9:
                    continue
                new_load = load + wp.load_delta
                if new_load > route.capacity or new_load < 0:
                    continue
                next_picked = picked | {rid} if wp.kind is WaypointKind.PICKUP else picked
                order.append(wp)
                recurse(order, remaining[:index] + remaining[index + 1:], wp.node,
                        arrival, new_load, cost + leg, next_picked)
                order.pop()

        # Prime the search with the committed stop (if any) already serviced.
        node, clock, load, cost = route.origin, route.departure_time, route.onboard, 0.0
        picked: set[int] = set()
        for wp in committed:
            leg = oracle.cost(node, wp.node)
            clock = max(clock + leg, wp.earliest_service)
            load += wp.load_delta
            if (
                math.isinf(leg) or clock > wp.deadline + 1e-9
                or load > route.capacity or load < 0
            ):
                return None
            cost += leg
            node = wp.node
            if wp.kind is WaypointKind.PICKUP:
                picked.add(wp.request.request_id)
        recurse(list(committed), pending, node, clock, load, cost, picked)
        if best_order is None:
            return None
        return Schedule(best_order)

    def optimal_cost(self, route: RouteState, new_requests) -> float:
        """Travel cost of the optimal schedule, or ``inf`` when infeasible."""
        schedule = self.optimal_schedule(route, new_requests)
        if schedule is None:
            return math.inf
        return schedule.travel_cost(self._oracle, route.origin)


def _reference_best_pair_schedule(first, second, oracle, *, capacity=None):
    """The pre-kernel ``best_pair_schedule``: evaluate the three orderings."""
    seats = capacity if capacity is not None else first.riders + second.riders
    if first.riders + second.riders > seats:
        return None, math.inf
    best_schedule, best_cost = None, math.inf
    for candidate in pair_orderings(first, second):
        evaluation = candidate.evaluate(
            oracle, origin=first.source, departure_time=first.release_time,
            capacity=seats, initial_load=0,
        )
        if evaluation.feasible and evaluation.travel_cost < best_cost:
            best_schedule, best_cost = candidate, evaluation.travel_cost
    return best_schedule, best_cost


class _TableOracle:
    """Twelve nodes with arbitrary pairwise costs: no ties, no triangle
    inequality, and a share of unreachable ordered pairs."""

    nodes = tuple(range(12))
    #: The table never changes, so neither does what was derived from it.
    generation = 0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._cost = {
            (u, v): math.inf if rng.random() < 0.05 else rng.uniform(3.0, 40.0)
            for u in self.nodes for v in self.nodes if u != v
        }

    def cost(self, source: int, target: int) -> float:
        return 0.0 if source == target else self._cost[source, target]

    def lower_bound(self, source: int, target: int) -> float:
        """Without geometry or a triangle inequality nothing is refused early."""
        return 0.0


_TABLES = [_TableOracle(seed) for seed in range(2)]
# Jittered legs: routes through the same streets in a different order cost the
# same up to the last bit, which is what the 1e-12 tie-break is about.
_JITTERED = DistanceOracle(grid_city(6, 6, block_length=100.0, speed=10.0,
                                     perturbation=0.3, seed=3))


@st.composite
def insertion_cases(draw, oracles=(_ORACLE, _JITTERED, *_TABLES)):
    """``(oracle, route, request)`` over 0-8 stops: onboard riders, a
    committed first stop, pick-ups that wait for their release, routes that
    are already late, unreachable legs and exact-deadline ties."""
    oracle = draw(st.sampled_from(oracles))
    nodes = _TableOracle.nodes if oracle in _TABLES else _NODES
    if nodes is _NODES and oracle is not _ORACLE and draw(st.booleans()):
        # One street: detours cost nothing, up to the order of the additions,
        # and the straight-line bound is as tight as it gets.
        nodes = _NODES[:6]
    # Multiples of 10 s on the grid oracle (whose legs are multiples of 10 s
    # too) put arrivals exactly on deadlines; fractions exercise rounding.
    times = draw(st.sampled_from([
        st.integers(min_value=0, max_value=12).map(lambda k: 10.0 * k),
        st.floats(min_value=0.0, max_value=120.0),
        st.floats(min_value=0.0, max_value=400.0),
    ]))

    def request(rid: int) -> Request:
        source, destination = draw(st.lists(st.sampled_from(nodes), min_size=2,
                                            max_size=2, unique=True))
        direct = oracle.cost(source, destination)
        return Request.create(
            request_id=rid, source=source, destination=destination,
            release_time=draw(times),
            direct_cost=direct if direct < math.inf else 50.0,
            gamma=draw(st.sampled_from([1.5, 2.0, 4.0, 8.0])),
            max_wait=draw(st.sampled_from([0.0, 120.0, 600.0, math.inf])),
            riders=draw(st.integers(min_value=1, max_value=2)),
        )

    origin = draw(st.sampled_from(nodes))
    departure = draw(st.sampled_from([0.0, 0.0, 0.0, 10.0, 35.5, 200.0]))
    capacity = draw(st.integers(min_value=1, max_value=6))
    schedule, onboard = Schedule.empty(), 0
    for rid in range(1, draw(st.integers(min_value=0, max_value=4)) + 1):
        member = request(rid)
        n = len(schedule)
        # Mostly extend the route the way a dispatcher would (so it stays
        # feasible), sometimes anywhere (so it is late or overfull).
        planned = _reference_best_insertion(
            RouteState(0, origin, departure, schedule, capacity, onboard), member, oracle
        )
        if planned.feasible and draw(st.integers(min_value=0, max_value=4)):
            pickup, dropoff = planned.pickup_position, planned.dropoff_position
        else:
            pickup = draw(st.integers(min_value=0, max_value=n))
            dropoff = draw(st.integers(min_value=pickup + 1, max_value=n + 1))
        schedule = schedule.with_insertion(member, pickup, dropoff)
        if pickup == 0 and draw(st.booleans()):
            # Already picked up: only the drop-off remains.
            schedule, onboard = Schedule(schedule.waypoints[1:]), onboard + member.riders
    # A rider count that disagrees with the stops overfills or "empties" the
    # car somewhere along the route.
    onboard += draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    route = RouteState(
        vehicle_id=0, origin=origin, departure_time=departure, schedule=schedule,
        capacity=capacity, onboard=onboard,
        min_insert_position=draw(st.integers(min_value=0, max_value=min(1, len(schedule)))),
    )
    # Identifier 1 collides with a request of the route now and then.
    return oracle, route, request(draw(st.sampled_from([1, 9, 9, 9, 9, 9, 9, 9])))


def _assert_kernel_is_the_reference(oracle, route, request):
    expected = _reference_best_insertion(route, request, oracle)
    outcome = best_insertion(route, request, oracle)
    assert outcome.feasible == expected.feasible
    assert outcome.delta_cost == expected.delta_cost
    assert outcome.total_cost == expected.total_cost
    assert outcome.pickup_position == expected.pickup_position
    assert outcome.dropoff_position == expected.dropoff_position
    assert outcome.schedule == expected.schedule
    # A second request against the same snapshot reuses its profile.
    assert best_insertion(route, request, oracle) == outcome


def _assert_pair_test_is_the_reference(oracle, route, second, capacity):
    for first in route.schedule.requests():
        for a, b in ((first, second), (second, first)):
            expected = _reference_best_pair_schedule(a, b, oracle, capacity=capacity)
            assert best_pair_schedule(a, b, oracle, capacity=capacity) == expected


class TestInsertionKernelEqualsBruteForce:
    @given(case=insertion_cases())
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_best_insertion(self, case):
        _assert_kernel_is_the_reference(*case)

    @given(case=insertion_cases(), capacity=st.sampled_from([None, 1, 2, 3, 4]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_best_pair_schedule(self, case, capacity):
        _assert_pair_test_is_the_reference(*case, capacity)

    def test_route_that_violates_the_order_constraint_takes_nothing(self):
        a = _request(1, _NODES[0], _NODES[5], 0.0, 2.0)
        backwards = Schedule(tuple(reversed(Schedule.direct(a).waypoints)))
        route = RouteState(vehicle_id=0, origin=_NODES[0], departure_time=0.0,
                           schedule=backwards, capacity=4, onboard=0)
        newcomer = _request(2, _NODES[1], _NODES[4], 0.0, 2.0)
        assert not _reference_best_insertion(route, newcomer, _ORACLE).feasible
        assert best_insertion(route, newcomer, _ORACLE) == InsertionOutcome.infeasible(backwards)


# --------------------------------------------------------------------------- #
# Differential test: a vehicle's reused plan snapshot against a fresh one.
# --------------------------------------------------------------------------- #
_PLAN_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from([
            "advance", "advance", "advance", "assign", "assign", "reposition",
            "refit", "rebuild", "fallback", "clear_cache", "heal", "offer", "offer",
        ]),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([1.0, 4.0, 15.0, 60.0]),
    ),
    min_size=4, max_size=40,
)


class TestPlanSnapshotsEqualFreshOnes:
    @given(operations=_PLAN_OPERATIONS, capacity=st.integers(min_value=1, max_value=3))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_best_insertion_on_the_vehicles_snapshot(self, operations, capacity):
        """Whatever happened to the vehicle and the oracle in between, asking
        the snapshot ``route_state`` hands out -- possibly the object of an
        earlier tick, with its profile and outcome table -- equals asking a
        snapshot constructed from the same fields that has answered nothing."""
        city = grid_city(4, 4, block_length=100.0, speed=10.0, perturbation=0.2, seed=5)
        nodes = sorted(city.nodes())
        edges = sorted(city.edges())
        # Every refresh leaves the oracle corrupted, so "heal" has work to do.
        oracle = ChaosOracle(
            city, injector=FaultInjector(ChaosConfig(corruption_rate=1.0, corruption_factor=1.5))
        )
        trips = [(nodes[(3 * rid) % 16], nodes[(3 * rid + 7) % 16]) for rid in range(8)]
        pool = [
            Request.create(
                request_id=rid, source=source, destination=destination, release_time=0.0,
                direct_cost=oracle.cost(source, destination),
                gamma=(3.0, 6.0, 12.0)[rid % 3], max_wait=(60.0, 240.0, math.inf)[rid % 3],
                riders=1 + rid % 2,
            )
            for rid, (source, destination) in enumerate(trips)
        ]
        vehicle = Vehicle(vehicle_id=7, location=nodes[0], capacity=capacity)
        now, assigned, reused = 0.0, set(), 0
        seen: set[int] = set()
        for operation, pick, amount in operations:
            request = pool[pick]
            if operation == "advance":
                now += amount
                vehicle.advance_to(now, oracle)
            elif operation == "assign":
                outcome = best_insertion(vehicle.route_state(now), request, oracle)
                if outcome.feasible and pick not in assigned:
                    vehicle.assign_schedule(outcome.schedule, [request], now)
                    assigned.add(pick)
            elif operation == "reposition":
                if vehicle.is_idle and nodes[pick] != vehicle.location:
                    vehicle.reposition(nodes[pick], oracle.cost(vehicle.location, nodes[pick]), now)
            elif operation in ("rebuild", "fallback"):
                u, v, cost = edges[pick]
                city.add_edge(u, v, cost * amount)
                oracle.rebuild() if operation == "rebuild" else oracle.enable_fallback()
            elif operation == "refit":
                vehicle.capacity = max(vehicle.onboard, 1 + pick % 3)
            elif operation == "clear_cache":
                oracle.clear_cache()
            elif operation == "heal":
                oracle.heal()
            # Whatever just happened, offer two requests to the vehicle's plan.
            snapshot = vehicle.route_state(now)
            reused += id(snapshot) in seen
            seen.add(id(snapshot))
            driving = snapshot.min_insert_position == 1
            assert snapshot == RouteState(
                vehicle.vehicle_id, vehicle.location,
                vehicle._clock if driving else max(vehicle._clock, now),
                vehicle.schedule, vehicle.capacity, vehicle.onboard, int(driving),
            )
            fresh = RouteState(
                snapshot.vehicle_id, snapshot.origin, snapshot.departure_time,
                snapshot.schedule, snapshot.capacity, snapshot.onboard,
                snapshot.min_insert_position,
            )
            for offered in (request, pool[(pick + 3) % 8]):
                assert best_insertion(snapshot, offered, oracle) == best_insertion(
                    fresh, offered, oracle
                )
        event(f"snapshots reused: {min(reused, 3)}")


def _reference_query_radius(index: GridIndex, x: float, y: float, radius: float) -> list:
    """``query_radius`` from the contents alone: every stored key whose cell
    the query box overlaps and whose point is in the disk, by (cell, key)."""
    lo = index._cell_of(x - radius, y - radius)
    hi = index._cell_of(x + radius, y + radius)
    hits = []
    for key, (px, py) in index._positions.items():
        cell = index._cell_of(px, py)
        if (
            lo[0] <= cell[0] <= hi[0] and lo[1] <= cell[1] <= hi[1]
            and math.hypot(px - x, py - y) <= radius
        ):
            hits.append((cell, key))
    return [key for _, key in sorted(hits)]


_coordinate = st.floats(min_value=-50, max_value=550)
#: Points 50 apart, a ring of them outside the 500 x 500 bounds: equal
#: distances and shared positions are the common case.
_lattice = st.integers(min_value=-1, max_value=11).map(lambda step: step * 50.0)
_index_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "move", "remove"]),
        st.integers(min_value=0, max_value=23),
        _coordinate,
        _coordinate,
    ),
    max_size=40,
)


class TestGridIndexProperties:
    @given(
        points=st.lists(
            st.tuples(st.floats(min_value=0, max_value=500),
                      st.floats(min_value=0, max_value=500)),
            min_size=1, max_size=60,
        ),
        query=st.tuples(st.floats(min_value=0, max_value=500),
                        st.floats(min_value=0, max_value=500),
                        st.floats(min_value=0, max_value=300)),
    )
    @settings(max_examples=50, deadline=None)
    # A subnormal offset, whose square underflows to 0.0: a zero-radius disk
    # must not hold the key.
    @example(points=[(0.0, 4.157126055068387e-228)], query=(0.0, 0.0, 0.0))
    def test_radius_query_equals_brute_force(self, points, query):
        index = GridIndex((0, 0, 500, 500), cells_per_axis=7)
        for key, (x, y) in enumerate(points):
            index.insert(key, x, y)
        qx, qy, radius = query
        # Compare with the same ``math.hypot`` predicate the index documents
        # (a sum of squares underflows for subnormal offsets).
        expected = {
            key for key, (x, y) in enumerate(points)
            if math.hypot(x - qx, y - qy) <= radius
        }
        assert set(index.query_radius(qx, qy, radius)) == expected

    @given(
        cells_per_axis=st.sampled_from([1, 3, 8, 32]),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "move", "remove", "query", "query"]),
                st.integers(min_value=0, max_value=11),
                st.floats(min_value=-50, max_value=550),
                st.floats(min_value=-50, max_value=550),
                st.floats(min_value=0, max_value=400),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_radius_query_equals_the_cell_walk_in_order(self, cells_per_axis, operations):
        """Candidate order feeds stable-sort truncation and first-wins
        tie-breaks, so the result must equal the full cell walk as a list."""
        index = GridIndex((0, 0, 500, 500), cells_per_axis=cells_per_axis)
        for operation, key, x, y, radius in operations:
            if operation == "insert":
                index.insert(key, x, y)
            elif operation == "move":
                index.move(key, x, y)
            elif operation == "remove":
                index.remove(key)
            else:
                assert index.query_radius(x, y, radius) == _reference_query_radius(
                    index, x, y, radius
                )

    def test_keys_inserted_in_either_order_answer_alike(self):
        """The concrete case: three keys that collide in a small ``set``."""
        ascending = GridIndex((0, 0, 500, 500), cells_per_axis=8)
        descending = GridIndex((0, 0, 500, 500), cells_per_axis=8)
        for key in (0, 8, 16):
            ascending.insert(key, 100.0, 100.0)
        for key in (16, 8, 0):
            descending.insert(key, 100.0, 100.0)
        assert ascending.query_radius(100, 100, 10) == [0, 8, 16]
        assert descending.query_radius(100, 100, 10) == [0, 8, 16]
        assert descending.k_nearest(100, 100, 1) == [(0.0, 0), (0.0, 8), (0.0, 16)]

    @given(
        cells_per_axis=st.sampled_from([1, 3, 8, 32]),
        contents=st.dictionaries(
            st.integers(min_value=0, max_value=23),
            st.tuples(_coordinate, _coordinate),
            max_size=24,
        ),
        history=_index_operations,
        order=st.randoms(use_true_random=False),
        refresh=st.booleans(),
        queries=st.lists(
            st.tuples(_coordinate, _coordinate, st.floats(min_value=0, max_value=400)),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_answers_are_a_function_of_the_contents(
        self, cells_per_axis, contents, history, order, refresh, queries
    ):
        """Two indexes holding the same ``key -> position`` map answer with
        the same lists, whatever insert / move / remove history built them."""
        direct = GridIndex((0, 0, 500, 500), cells_per_axis=cells_per_axis)
        for key, (x, y) in sorted(contents.items()):
            direct.insert(key, x, y)

        travelled = GridIndex((0, 0, 500, 500), cells_per_axis=cells_per_axis)
        for operation, key, x, y in history:
            if operation == "remove":
                travelled.remove(key)
            else:
                getattr(travelled, operation)(key, x, y)
        keys = sorted(set(contents) | set(travelled.keys()))
        order.shuffle(keys)
        for key in keys:
            if key in contents:
                travelled.move(key, *contents[key])
            else:
                travelled.remove(key)
        if refresh:
            # The engine's old per-tick refresh: re-insert every key in place.
            order.shuffle(keys)
            for key in keys:
                if key in contents:
                    travelled.move(key, *contents[key])

        assert dict(travelled._positions) == dict(direct._positions)
        for x, y, radius in queries:
            answer = direct.query_radius(x, y, radius)
            assert travelled.query_radius(x, y, radius) == answer
            assert answer == _reference_query_radius(direct, x, y, radius)
            for k in (1, 5):
                assert travelled.k_nearest(x, y, k) == direct.k_nearest(x, y, k)


    @given(
        cells_per_axis=st.sampled_from([1, 3, 8, 32]),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "move", "remove", "remove", "clear"]),
                st.integers(min_value=0, max_value=11),
                _coordinate,
                _coordinate,
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_occupied_cells_stay_in_ascending_order(self, cells_per_axis, operations):
        """Queries pick the occupied cells out of a list kept ascending by
        ``insert`` / ``remove``; it must name exactly the non-empty cells."""
        index = GridIndex((0, 0, 500, 500), cells_per_axis=cells_per_axis)
        for operation, key, x, y in operations:
            if operation == "clear":
                index.clear()
            elif operation == "remove":
                index.remove(key)
            else:
                getattr(index, operation)(key, x, y)
            assert index._occupied == sorted(index._cells)
            assert all(index._cells.values())
            assert sorted(
                key for members in index._cells.values() for key in members
            ) == sorted(index._positions)
            # The coordinate array holds every key once, at its position.
            assert [index._slots[key] for key in index._keys] == list(range(len(index)))
            assert {
                key: tuple(index._xy[:, slot]) for slot, key in enumerate(index._keys)
            } == index._positions

    @given(
        cells_per_axis=st.sampled_from([1, 3, 8, 32]),
        contents=st.dictionaries(
            st.integers(min_value=0, max_value=23), st.tuples(_lattice, _lattice),
            max_size=24,
        ),
        point=st.one_of(
            st.tuples(_lattice, _lattice),
            st.tuples(_coordinate, _coordinate),
            st.tuples(st.floats(min_value=-3000, max_value=3500),
                      st.floats(min_value=-3000, max_value=3500)),
        ),
        how_many=st.sampled_from(["one", "a third", "half", "all", "more"]),
        churn=st.lists(st.integers(min_value=0, max_value=23), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    # A subnormal offset, whose square underflows to 0.0: a disk just short
    # of the nearest key must not hold it.
    @example(
        cells_per_axis=1, contents={0: (0.0, 0.0)}, point=(0.0, 1.11e-308),
        how_many="one", churn=[],
    )
    # Near-subnormal offsets: key 0 is nearer, but its two squares round up
    # and key 1's one square rounds down, so key 0's sum of squares is twice
    # key 1's.  The shortlist's band must still hold key 0.
    @example(
        cells_per_axis=1, contents={0: (1.72e-162, 1.72e-162), 1: (2.53e-162, 0.0)},
        point=(0.0, 0.0), how_many="one", churn=[],
    )
    # Lattice ties at the k-th key: four keys 50 away share the 2nd place.
    @example(
        cells_per_axis=8,
        contents={key: (250.0 + dx, 250.0 + dy) for key, (dx, dy) in enumerate(
            [(0, 0), (50, 0), (0, 50), (-50, 0), (0, -50), (50, 50), (100, 0)]
        )},
        point=(250.0, 250.0), how_many="a third", churn=[],
    )
    # Removals and re-inserts that leave the slots holding keys 5, 1, 0, 3,
    # 2, 4, for k < len and for k >= len.
    @example(
        cells_per_axis=3, contents={key: (100.0 * key, 50.0) for key in range(6)},
        point=(260.0, 50.0), how_many="half", churn=[0, 2, 4],
    )
    @example(
        cells_per_axis=3, contents={key: (100.0 * key, 50.0) for key in range(6)},
        point=(260.0, 50.0), how_many="more", churn=[0, 2, 4],
    )
    def test_k_nearest_holds_the_k_nearest_and_everything_tied_with_the_kth(
        self, cells_per_axis, contents, point, how_many, churn
    ):
        """On a lattice ties are the common case; the query point lies on a
        key, inside, on the edge of or far outside the bounds.  Removing and
        re-inserting keys (``churn``) moves them to other slots of the
        coordinate arrays, which must not change the answer."""
        index = GridIndex((0, 0, 500, 500), cells_per_axis=cells_per_axis)
        for key, (px, py) in contents.items():
            index.insert(key, px, py)
        for key in churn:
            if key in contents:
                index.remove(key)
                index.insert(key, *contents[key])
        size = len(contents)
        k = {"one": 1, "a third": max(size // 3, 1), "half": max(size // 2, 1),
             "all": size, "more": size + 3}[how_many]
        x, y = point
        event(f"k {'on an empty index' if not size else '< len' if k < size else '>= len'}")
        truth = {
            key: math.hypot(px - x, py - y) for key, (px, py) in contents.items()
        }
        found = index.k_nearest(x, y, k)
        if not contents:
            assert found == []
            return
        # Exactly the keys as near as the k-th, nearest first, ties by key,
        # each with its ``math.hypot`` distance.
        kth = sorted(truth.values())[min(k, len(truth)) - 1]
        assert found == sorted(
            (distance, key) for key, distance in truth.items() if distance <= kth
        )
        # k = 1 holds every closest key; a disk short of them holds nothing.
        closest = min(truth.values())
        assert {key for key in truth if truth[key] == closest} <= {
            key for _, key in index.k_nearest(x, y, 1)
        }
        if closest > 0:
            assert index.query_radius(x, y, closest * 0.99) == []


_EXPRESS_ROADS = ((_NODES[7], _NODES[28]), (_NODES[25], _NODES[10]))


def _express_city():
    """``_CITY``'s lattice plus two diagonal express roads at 25 m/s, so the
    network's top speed is not the lattice's 10 m/s.  Both end inside the
    city: a vehicle at one end is not the farthest from the other."""
    city = grid_city(6, 6, block_length=100.0, speed=10.0, perturbation=0.0, seed=0)
    for u, v in _EXPRESS_ROADS:
        city.add_edge(u, v, city.euclidean(u, v) / 25.0, bidirectional=True)
    return city


_EXPRESS = _express_city()
_EXPRESS_ORACLE = DistanceOracle(_EXPRESS)


def _reference_candidate_vehicles(request, context, *, max_candidates=None):
    """``candidate_vehicles`` the obvious way: the range query, else the whole
    fleet, then a stable sort by straight-line distance from the nodes and a
    cut; a cut fallback keeps the vehicles whose snapshots reach the pick-up
    in time at the fastest edge's speed."""
    network, now = context.network, context.current_time
    source_xy = network.position(request.source)
    slack = max(request.latest_pickup - now, 0.0)
    radius = max(context.average_speed * slack, 1.0)
    ids = context.vehicle_index.query_radius(source_xy[0], source_xy[1], radius)
    by_id = context.vehicles_by_id
    found = [by_id[vid] for vid in ids if vid in by_id]
    fallback = not found
    if fallback:
        found = list(context.vehicles)
    if max_candidates is not None and len(found) > max_candidates:
        found.sort(key=lambda v: network.euclidean(v.location, request.source))
        found = found[:max_candidates]
        if fallback:
            speed = max(network.euclidean(u, v) / w for u, v, w in network.edges())
            speed *= 1 + 1e-9
            found = [
                v for v in found
                if v.route_state(now).departure_time
                + network.euclidean(v.location, request.source) / speed
                <= request.latest_pickup + 1e-9
            ]
    return found


def _placed(nodes):
    """(node, on shift, plan, clock): three vehicles in four are on shift; a
    plan is none, assigned at ``clock`` but not yet under way, or under way
    since."""
    return st.tuples(
        nodes,
        st.sampled_from([True, True, True, False]),
        st.sampled_from(["idle", "assigned", "driving"]),
        st.sampled_from([0.0, 20.0, 45.0]),
    )


_placed_vehicle = _placed(node_ids)
#: Half at an end of an express road, where the top speed is a tight bound.
_near_express = st.one_of(st.sampled_from([n for road in _EXPRESS_ROADS for n in road]), node_ids)


def _fleet(placed, oracle):
    """Vehicles for ``placed``; a planned one carries a rider from seven
    nodes on to its own node."""
    vehicles = []
    for vehicle_id, (node, on_shift, plan, clock) in enumerate(placed):
        vehicle = Vehicle(vehicle_id=vehicle_id, location=node, on_shift=on_shift, _clock=clock)
        if plan != "idle":
            pickup = _NODES[(_NODES.index(node) + 7) % len(_NODES)]
            rider = Request(
                release_time=0.0, request_id=1000 + vehicle_id, source=pickup,
                destination=node, max_wait=1e6,
            )
            vehicle.assign_schedule(Schedule.direct(rider), [rider], clock)
            if plan == "driving":
                vehicle.advance_to(clock, oracle)
        vehicles.append(vehicle)
    return vehicles


def _candidate_context(network, oracle, placed, order, cells_per_axis, request, now, speed):
    """A context like the engine's: off-shift vehicles are in neither the
    fleet nor the index, which holds the rest at their nodes."""
    vehicles = _fleet(placed, oracle)
    order.shuffle(vehicles)
    on_shift = [vehicle for vehicle in vehicles if vehicle.on_shift]
    index = GridIndex.for_network(network, cells_per_axis)
    for vehicle in on_shift:
        index.insert(vehicle.vehicle_id, *network.position(vehicle.location))
    return DispatchContext(
        current_time=now, batch=Batch(0, now, now + 5.0, (request,)), pending=[request],
        vehicles=on_shift, network=network, oracle=oracle, vehicle_index=index,
        config=SimulationConfig(), average_speed=speed,
    )


class TestCandidateVehiclesEqualTheObviousOnes:
    @given(
        cells_per_axis=st.sampled_from([1, 3, 8, 32]),
        fleet=st.one_of(
            st.lists(_placed_vehicle, min_size=1, max_size=12),
            st.lists(_placed_vehicle, min_size=26, max_size=40),
            # Dense: two to five vehicles a node, ties at every cut.
            st.lists(_placed_vehicle, min_size=60, max_size=200),
        ),
        order=st.randoms(use_true_random=False),
        source=node_ids,
        now=st.sampled_from([0.0, 30.0]),
        # 10 m/s: the disk holds the source's node, its neighbours, ... , the city.
        slack=st.sampled_from([0.0, 5.0, 10.0, 15.0, 30.0, 80.0]),
        max_candidates=st.sampled_from([None, 1, 3, 3, 24, 24, 50]),
    )
    # Vehicles under way since before ``now`` depart at their clock, not at ``now``.
    @example(
        cells_per_axis=8, fleet=[(node, True, "driving", 0.0) for node in _NODES[3:33]],
        order=random.Random(0), source=_NODES[0], now=30.0, slack=0.0, max_candidates=24,
    )
    # Five idle vehicles on every node but the corner source's: the
    # fallback's cut to 24 falls inside the ten 200 m away, and the reach
    # rule keeps the ten 100 m away.
    @example(
        cells_per_axis=3,
        fleet=[(node, True, "idle", 0.0) for node in _NODES[1:] for _ in range(5)],
        order=random.Random(1), source=_NODES[0], now=0.0, slack=5.0, max_candidates=24,
    )
    @settings(max_examples=400, deadline=None)
    def test_same_vehicles_in_the_same_order(
        self, cells_per_axis, fleet, order, source, now, slack, max_candidates
    ):
        """The city is a lattice and vehicles share nodes, so equal distances
        are the common case and both tie orders (query order inside the
        radius, fleet order in the fallback) decide the cut; the express
        roads set the top speed the fallback's reach rule uses."""
        destination = _NODES[0] if source != _NODES[0] else _NODES[1]
        request = Request(
            release_time=now, request_id=1, source=source, destination=destination,
            max_wait=slack,
        )
        context = _candidate_context(
            _EXPRESS, _EXPRESS_ORACLE, fleet, order, cells_per_axis, request, now, 10.0
        )
        expected = _reference_candidate_vehicles(
            request, context, max_candidates=max_candidates
        )
        index = context.vehicle_index
        in_reach = len(index.query_radius(*_EXPRESS.position(source), max(10.0 * slack, 1.0)))
        pool = in_reach or len(context.vehicles)
        cut = max_candidates and pool > max_candidates
        event(f"{'in reach' if in_reach else 'fallback'}, {'cut' if cut else 'whole'}")
        if cut and not in_reach:
            event(f"fallback keeps {'all' if len(expected) == max_candidates else 'some'}")
        found = candidate_vehicles(request, context, max_candidates=max_candidates)
        assert [v.vehicle_id for v in found] == [v.vehicle_id for v in expected]
        assert all(a is b for a, b in zip(found, expected))


def _built_oracle(backend, network):
    return DistanceOracle(network, backend=backend)


def _sped_up_oracle(backend, network):
    """A ``backend`` oracle that answers from a Dijkstra fallback after the
    first express road got three times faster; its top speed follows."""
    oracle = DistanceOracle(network, backend=backend)
    built = oracle.top_speed()
    u, v = _EXPRESS_ROADS[0]
    network.add_edge(u, v, network.edge_cost(u, v) / 3.0, bidirectional=True)
    oracle.enable_fallback()
    assert oracle.top_speed() == pytest.approx(3 * built)
    return oracle


def _corrupted_oracle(backend, network, factor=0.6):
    """A ``backend`` oracle whose every cost is ``factor`` of the truth."""
    injector = FaultInjector(ChaosConfig(corruption_rate=1.0, corruption_factor=factor))
    oracle = ChaosOracle(network, injector=injector, backend=backend)
    oracle.rebuild()
    assert oracle.corrupted
    return oracle


_EXPRESS_EXAMPLE = [
    (node, True, "idle", 0.0) for node in (_EXPRESS_ROADS[0][0], _NODES[0], _NODES[1])
]


class TestTheReachRuleDropsOnlyRefusals:
    @given(
        backend=st.sampled_from(["dijkstra", "ch", "hub_label"]),
        serving=st.sampled_from(["built", "fallback", "corrupted"]),
        fleet=st.lists(_placed(_near_express), min_size=4, max_size=16),
        order=st.randoms(use_true_random=False),
        source=_near_express,
        now=st.sampled_from([0.0, 30.0]),
        slack=st.sampled_from([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 45.0]),
        cut=st.sampled_from([1, 3, 5, 24, "all but one"]),
    )
    # A vehicle at one end of an express road the request starts at the other
    # end of, in time only at the sped-up (or scaled-down) cost.
    @example(
        backend="ch", serving="corrupted", fleet=_EXPRESS_EXAMPLE, order=random.Random(0),
        source=_EXPRESS_ROADS[0][1], now=0.0, slack=15.0, cut=2,
    )
    @example(
        backend="dijkstra", serving="fallback", fleet=_EXPRESS_EXAMPLE, order=random.Random(0),
        source=_EXPRESS_ROADS[0][1], now=0.0, slack=10.0, cut=2,
    )
    @settings(max_examples=300, deadline=None)
    def test_no_dropped_vehicle_has_a_feasible_insertion(
        self, backend, serving, fleet, order, source, now, slack, cut
    ):
        """A slow 1 m/s radius makes the fallback common; the kernel must
        refuse every vehicle of the cut the reach rule dropped -- with the
        top speed of the state the oracle serves, and of the costs it returns."""
        network = _express_city()
        make = {"built": _built_oracle, "fallback": _sped_up_oracle,
                "corrupted": _corrupted_oracle}[serving]
        oracle = make(backend, network)
        destination = _NODES[0] if source != _NODES[0] else _NODES[1]
        request = Request(
            release_time=now, request_id=1, source=source, destination=destination,
            max_wait=slack,
        )
        context = _candidate_context(network, oracle, fleet, order, 8, request, now, 1.0)
        x, y = network.position(source)
        assume(not context.vehicle_index.query_radius(x, y, max(slack, 1.0)))
        max_candidates = max(len(context.vehicles) - 1, 1) if cut == "all but one" else cut
        kept = candidate_vehicles(request, context, max_candidates=max_candidates)
        kept_ids = {vehicle.vehicle_id for vehicle in kept}
        nearest = sorted(
            context.vehicles, key=lambda v: network.euclidean(v.location, source)
        )[:max_candidates]
        dropped = [v for v in nearest if v.vehicle_id not in kept_ids]
        event(f"{serving}: {'drops' if dropped else 'keeps all'}")
        for vehicle in dropped:
            route = vehicle.route_state(now)
            assert not best_insertion(route, request, oracle).feasible


def _twice_as_fast_oracle(backend, network):
    """A ``backend`` oracle that answers from a Dijkstra fallback after every
    street got twice as fast: a bound at the built top speed refuses in time."""
    oracle = DistanceOracle(network, backend=backend)
    built = oracle.top_speed()
    for u, v, cost in list(network.edges()):
        network.add_edge(u, v, cost / 2.0)
    oracle.enable_fallback()
    assert oracle.serving_fallback and oracle.top_speed() == pytest.approx(2 * built)
    return oracle


#: Every backend as built, serving a fallback and corrupted below and above
#: the truth, each over its own copy of ``_CITY``: every street drives at the
#: top speed, so ``lower_bound`` is the cost of a leg along one street.
_BOUNDED = {
    (backend, serving): make(
        backend, grid_city(6, 6, block_length=100.0, speed=10.0, perturbation=0.0, seed=0)
    )
    for backend in ("dijkstra", "ch", "hub_label")
    for serving, make in (
        ("built", _built_oracle),
        ("fallback", _twice_as_fast_oracle),
        ("corrupted 0.6", lambda backend, city: _corrupted_oracle(backend, city, 0.6)),
        ("corrupted 1.07", lambda backend, city: _corrupted_oracle(backend, city, 1.07)),
    )
}


class TestTheBoundRefusesOnlyRefusals:
    """The kernel and the pair test refuse on ``oracle.lower_bound`` before
    pricing a leg, and still answer what the unpruned references answer."""

    @given(case=insertion_cases(tuple(_BOUNDED.values())))
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_best_insertion(self, case):
        oracle, route, request = case
        profile = route.profile(oracle)
        due = request.latest_pickup + 1e-9
        opened = range(route.min_insert_position, min(len(route.schedule), profile.open_until) + 1)
        bites = len(route.schedule) > 0 and any(
            profile.clock_at[i] <= due
            < profile.clock_at[i] + oracle.lower_bound(profile.node_at[i], request.source)
            for i in opened
        )
        event("bound refuses" if bites else "bound idle")
        _assert_kernel_is_the_reference(oracle, route, request)

    @pytest.mark.parametrize("key", sorted(_BOUNDED), ids=" ".join)
    def test_a_pickup_due_on_arrival_along_one_street_is_taken(self, key):
        """Along one street a leg costs exactly the straight line at the top
        speed: only the margin keeps the bound of an arrival right on the
        deadline below it."""
        oracle = _BOUNDED[key]
        street = _NODES[:6]
        due = oracle.cost(street[0], street[5])
        rider = Request(release_time=0.0, request_id=1, source=street[0],
                        destination=street[1])
        newcomer = Request(release_time=0.0, request_id=2, source=street[5],
                           destination=street[4], max_wait=due)
        route = RouteState(0, street[0], 0.0, Schedule.direct(rider), 4, 0)
        assert due - oracle.lower_bound(street[0], street[5]) < 1e-6
        _assert_kernel_is_the_reference(oracle, route, newcomer)
        _assert_pair_test_is_the_reference(oracle, route, newcomer, None)
        assert best_insertion(route, newcomer, oracle).feasible
        assert best_pair_schedule(rider, newcomer, oracle)[0] is not None

    @given(case=insertion_cases(tuple(_BOUNDED.values())),
           capacity=st.sampled_from([None, 1, 2, 3, 4]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_best_pair_schedule(self, case, capacity):
        _assert_pair_test_is_the_reference(*case, capacity)


def _graph_from_edge_bools(num_nodes: int, edge_bits: list[bool]) -> ShareabilityGraph:
    graph = ShareabilityGraph()
    for rid in range(num_nodes):
        graph.add_request(Request(release_time=0.0, request_id=rid, source=0,
                                  destination=1, deadline=10.0, direct_cost=1.0))
    index = 0
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if index < len(edge_bits) and edge_bits[index]:
                graph.add_edge(u, v)
            index += 1
    return graph


graph_strategy = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )
).map(lambda pair: _graph_from_edge_bools(*pair))


class TestShareabilityGraphProperties:
    @given(graph=graph_strategy)
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edge_count(self, graph):
        assert sum(graph.degrees().values()) == 2 * graph.num_edges

    @given(graph=graph_strategy)
    @settings(max_examples=60, deadline=None)
    def test_greedy_partition_is_a_partition_of_cliques(self, graph):
        partition = greedy_clique_partition(graph, max_clique_size=3)
        covered = sorted(rid for clique in partition for rid in clique)
        assert covered == sorted(graph.request_ids())
        assert all(graph.is_clique(clique) for clique in partition)
        assert all(1 <= len(clique) <= 3 for clique in partition)

    @given(graph=graph_strategy)
    @settings(max_examples=60, deadline=None)
    def test_equation6_bound_is_at_most_n(self, graph):
        bound = clique_partition_upper_bound(graph.num_nodes, graph.num_edges)
        assert 0 <= bound <= graph.num_nodes

    @given(graph=graph_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_loss_bounds(self, graph, data):
        nodes = sorted(graph.request_ids())
        group = data.draw(st.lists(st.sampled_from(nodes), min_size=1,
                                   max_size=min(3, len(nodes)), unique=True))
        if len(group) > 1 and not graph.is_clique(group):
            return
        full = shareability_loss(graph, group)
        residual = residual_shareability_loss(graph, group)
        assert residual <= full + 1e-9
        assert full <= graph.num_nodes
        assert residual >= -1.0
