"""Common dispatcher interface and shared helpers."""

from __future__ import annotations

import abc
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from ..config import AVERAGE_SPEED, SimulationConfig
from ..insertion.linear_insertion import InsertionOutcome, best_insertion
from ..model.batch import Batch
from ..model.request import Request
from ..model.schedule import Schedule
from ..model.vehicle import RouteState, Vehicle
from ..network.grid_index import GridIndex
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..shareability.builder import DynamicShareabilityGraphBuilder


@dataclass(frozen=True, slots=True)
class Refusal:
    """An offer of a request, made at ``made``, that found no feasible vehicle.

    While it holds, offering the request again asks only vehicles that
    refused it and would refuse again: DESIGN's "Standing refusals" has the
    argument (``nearest`` is ``-inf`` off the radius branch).
    """

    made: float
    generation: int
    max_candidates: int | None
    x: float
    y: float
    circle: float
    nearest: float

    def holds(self, request: Request, context: DispatchContext, max_candidates: int | None) -> bool:
        """Whether offering ``request`` in ``context`` would find no vehicle."""
        return (
            self.made < context.current_time
            and self.generation == context.oracle.generation
            and self.max_candidates == max_candidates
            and self.nearest <= _radius(request, context)
        )


class Refusals(dict[int, Refusal]):
    """The standing :class:`Refusal` of each pending request, by request id.

    The engine calls :meth:`touch` where it changes a vehicle's node, clock
    or plan (at both nodes for a move), drops a certificate with its request
    and clears the store on a shift change.
    """

    def touch(self, network: RoadNetwork, *nodes: int) -> None:
        """Drop every certificate whose circle holds one of ``nodes``."""
        for x, y in map(network.position, nodes if self else ()):
            for request_id in [
                rid for rid, r in self.items() if math.hypot(r.x - x, r.y - y) <= r.circle
            ]:
                del self[request_id]


@dataclass
class DispatchContext:
    """Everything a dispatcher may consult when handling one batch.

    ``pending`` contains every unassigned, unexpired request known to the
    platform, including the requests of the current ``batch``.  Dispatchers
    write only ``refusals`` (:func:`feasible_insertions`); they return a
    :class:`DispatchResult` and the simulator applies it.  They plan on
    :meth:`working_routes`, which snapshots the vehicles a candidate query
    actually names rather than the fleet.
    ``vehicle_index`` holds exactly ``vehicles`` -- every one of them, keyed
    by its id at its node's position, and nothing else -- so what the index
    says is near is the fleet that is near.
    """

    current_time: float
    batch: Batch
    pending: list[Request]
    vehicles: list[Vehicle]
    network: RoadNetwork
    oracle: DistanceOracle
    vehicle_index: GridIndex
    config: SimulationConfig
    #: ``vehicles`` by id and each one's position in ``vehicles``; built from
    #: them unless given (the engine keeps both, rebuilt on shift events).
    vehicles_by_id: dict[int, Vehicle] = field(default_factory=dict)
    fleet_rank: dict[int, int] = field(default_factory=dict)
    #: What offers that found no vehicle certify (the engine keeps one
    #: store for the run; a context on its own starts an empty one).
    refusals: Refusals = field(default_factory=Refusals)

    def __post_init__(self) -> None:
        fleet = self.vehicles
        self.vehicles_by_id = self.vehicles_by_id or {v.vehicle_id: v for v in fleet}
        self.fleet_rank = self.fleet_rank or {v.vehicle_id: r for r, v in enumerate(fleet)}

    def working_routes(self) -> WorkingRoutes:
        """The routes one dispatch call plans on, snapshotted on first use."""
        return WorkingRoutes(self)

    def shareability_builder(self, *, angle_pruning: bool) -> DynamicShareabilityGraphBuilder:
        """A new graph builder over this context's network and oracle.

        A batch dispatcher makes one on its first batch and keeps it; without
        ``angle_pruning`` the graph holds every shareable pair (plain SARD,
        GAS, RTV), with it the config's angle threshold applies (SARD-O).
        """
        config = self.config
        if not angle_pruning:
            config = config.with_overrides(angle_threshold=None)
        return DynamicShareabilityGraphBuilder(
            network=self.network,
            oracle=self.oracle,
            config=config,
        )


class WorkingRoutes(dict[int, RouteState]):
    """The routes one dispatch call plans on, by vehicle identifier.

    An entry starts as the vehicle's planning snapshot at the context's
    time, taken when the dispatcher first asks for it; :meth:`extend`
    overwrites the entry, so insertions within a batch compound, and records
    in ``extended`` what the route was extended with.
    """

    def __init__(self, context: DispatchContext) -> None:
        super().__init__()
        self._fleet = context.vehicles_by_id
        self._now = context.current_time
        self.extended: dict[int, list[Request]] = {}

    def __missing__(self, vehicle_id: int) -> RouteState:
        route = self[vehicle_id] = self._fleet[vehicle_id].route_state(self._now)
        return route

    def extend(self, vehicle_id: int, schedule: Schedule, requests: Iterable[Request]) -> None:
        """Plan ``schedule`` for the vehicle; it newly serves ``requests``."""
        self[vehicle_id] = replace(self[vehicle_id], schedule=schedule)
        self.extended.setdefault(vehicle_id, []).extend(requests)

    def idle(self, vehicle: Vehicle) -> bool:
        """Whether the vehicle's working route has no stop (without taking
        its snapshot)."""
        return not vehicle.schedule and vehicle.vehicle_id not in self.extended

    def assignments(self) -> list[Assignment]:
        """One assignment per extended vehicle, in the order first extended."""
        return [
            Assignment(vehicle_id, self[vehicle_id].schedule, tuple(requests))
            for vehicle_id, requests in self.extended.items()
        ]


@dataclass(frozen=True)
class Assignment:
    """One vehicle's new schedule together with the newly accepted requests."""

    vehicle_id: int
    schedule: Schedule
    new_requests: tuple[Request, ...]

    @property
    def new_request_ids(self) -> set[int]:
        """Identifiers of the requests accepted by this assignment."""
        return {request.request_id for request in self.new_requests}


@dataclass
class DispatchResult:
    """What one batch's dispatch asks the simulator to do.

    Requests that are neither assigned nor rejected stay in the pending pool
    and are offered again in the next batch (until they expire).
    """

    assignments: list[Assignment] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)
    #: ``(vehicle id, node, travel time)`` of each idle vehicle sent toward
    #: ``node`` (``Vehicle.reposition``); the simulator moves it.
    repositions: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def assigned_request_ids(self) -> set[int]:
        """Identifiers of every request assigned in this result."""
        ids: set[int] = set()
        for assignment in self.assignments:
            ids |= assignment.new_request_ids
        return ids


class Dispatcher(abc.ABC):
    """Abstract base class of every dispatching algorithm."""

    #: Paper name of the algorithm ("SARD", "pruneGDP", ...).
    name: str = "dispatcher"

    @abc.abstractmethod
    def dispatch(self, context: DispatchContext) -> DispatchResult:
        """Handle one batch and return the schedule assignments."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget any cross-batch state (called on construction and between
        simulations)."""

    def estimated_memory_bytes(self) -> int:
        """Approximate working-set size, reported in the memory study."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def requests_by_vehicle(
    context: DispatchContext, requests: list[Request]
) -> dict[int, list[Request]]:
    """Invert :func:`candidate_vehicles`: which requests could each vehicle serve.

    Batch dispatchers that enumerate groups per vehicle (GAS, RTV) use this
    mapping as their RV-edge pruning: a vehicle only considers the requests
    whose pick-up it can plausibly reach before the waiting deadline.
    """
    mapping: dict[int, list[Request]] = {vehicle.vehicle_id: [] for vehicle in context.vehicles}
    for request in requests:
        for vehicle in candidate_vehicles(request, context):
            mapping[vehicle.vehicle_id].append(request)
    return mapping


class Candidates(list[Vehicle]):
    """What :func:`candidate_vehicles` found, with the circle around the
    pick-up that decided it (the radius; ``max(radius, k-th distance)`` for
    the fallback; ``inf`` when every vehicle is a candidate) and, when the
    radius found them, the distance of the nearest: ``None`` while no cut
    needed the distances, ``-inf`` on the other branches."""

    def __init__(
        self, vehicles: Iterable[Vehicle], circle: float, nearest: float | None = -math.inf
    ) -> None:
        super().__init__(vehicles)
        self.circle, self.nearest = circle, nearest


def candidate_vehicles(
    request: Request,
    context: DispatchContext,
    *,
    max_candidates: int | None = None,
) -> Candidates:
    """Vehicles that could plausibly pick ``request`` up before its deadline.

    The grid index names the vehicles within the distance reachable in the
    request's remaining pick-up slack, in its query order; when it names
    none (e.g. sparse fleets) every vehicle is a candidate, in fleet order.
    More than ``max_candidates`` of either are cut to the nearest ones by
    straight-line distance, equally distant vehicles staying in the order
    they were in -- for the fallback those come from the index's k-nearest
    query, not from sorting the fleet, and only those that make the pick-up
    at ``oracle.top_speed()`` (no route is faster) are kept.
    """
    x, y = context.network.position(request.source)
    now = context.current_time
    radius = _radius(request, context)
    index = context.vehicle_index
    by_id = context.vehicles_by_id
    found = [by_id[vid] for vid in index.query_radius(x, y, radius) if vid in by_id]
    if found:
        if max_candidates is None or len(found) <= max_candidates:
            return Candidates(found, radius, None)
        positions = (index.position(vehicle.vehicle_id) for vehicle in found)
        ranked = sorted(
            (math.hypot(px - x, py - y), rank) for rank, (px, py) in enumerate(positions)
        )
        cut = [found[rank] for _, rank in ranked[:max_candidates]]
        return Candidates(cut, radius, ranked[0][0])
    fleet = context.vehicles
    if max_candidates is None or len(fleet) <= max_candidates:
        return Candidates(fleet, math.inf)
    rank_of = context.fleet_rank
    ranked = sorted((d, rank_of[vid]) for d, vid in index.k_nearest(x, y, max_candidates))
    cut = [fleet[rank] for _, rank in ranked[:max_candidates]]
    speed, due = context.oracle.top_speed(), request.latest_pickup
    kept = (v for (d, _), v in zip(ranked, cut) if v.departure_time(now) + d / speed <= due)
    return Candidates(kept, max(radius, ranked[-1][0]))


def _radius(request: Request, context: DispatchContext) -> float:
    slack = max(request.latest_pickup - context.current_time, 0.0)
    return max(AVERAGE_SPEED * slack, 1.0)


def nearest_requests(
    vehicle: Vehicle, requests: list[Request], context: DispatchContext, limit: int
) -> list[Request]:
    """At most ``limit`` of ``requests``: those picked up nearest the vehicle.

    Straight-line distance, equally distant requests staying in the order
    they were in.  Enumerating groups over a whole city's pool would be
    intractable in pure Python -- and the paper's point about GAS and RTV is
    exactly that they enumerate too much.
    """
    if len(requests) <= limit:
        return requests
    euclidean = context.network.euclidean
    return sorted(requests, key=lambda r: euclidean(vehicle.location, r.source))[:limit]


def _offer(
    request: Request, context: DispatchContext, routes: WorkingRoutes, max_candidates: int | None
) -> Candidates | None:
    """The candidates an offer of ``request`` asks, their pick-up legs
    prefetched; ``None`` while the request's :class:`Refusal` holds."""
    refusal = context.refusals.get(request.request_id)
    if refusal is not None and refusal.holds(request, context, max_candidates):
        return None
    vehicles = candidate_vehicles(request, context, max_candidates=max_candidates)
    # Batch the pick-up legs the kernel is about to read into one oracle
    # call (a reverse multi-source search for the graph backends, one join
    # per pair for hub labels).  That is ``origin -> source`` of the routes
    # open at position 0 only: behind a committed stop the kernel starts at
    # that stop's node and never asks for the leg from the origin.
    # ``prefetch`` leaves the logical query counters untouched.
    origins = [
        vehicle.location for vehicle in vehicles
        if routes.idle(vehicle) or not routes[vehicle.vehicle_id].min_insert_position
    ]
    if origins:
        context.oracle.prefetch(origins, (request.source,))
    return vehicles


def _ask(route: RouteState, request: Request, oracle: DistanceOracle) -> InsertionOutcome:
    """The kernel's answer, unless the driving snapshot already holds it."""
    known = route.outcomes(oracle).get(request) if route.min_insert_position else None
    return best_insertion(route, request, oracle) if known is None else known


def _refuse(
    request: Request, context: DispatchContext, routes: WorkingRoutes,
    max_candidates: int | None, vehicles: Candidates,
) -> None:
    """Certify an offer that asked every candidate and found no vehicle,
    unless it asked a route this dispatch extended."""
    if routes.extended:
        return
    x, y = context.network.position(request.source)
    nearest = vehicles.nearest
    if nearest is None:  # only a refusal needs it; most offers find a vehicle
        positions = map(context.vehicle_index.position, [v.vehicle_id for v in vehicles])
        nearest = min(math.hypot(px - x, py - y) for px, py in positions)
    context.refusals[request.request_id] = Refusal(
        context.current_time, context.oracle.generation, max_candidates, x, y,
        vehicles.circle, nearest,
    )


def feasible_insertions(
    request: Request, context: DispatchContext, routes: WorkingRoutes, max_candidates: int | None
) -> list[tuple[InsertionOutcome, int]]:
    """``(outcome, vehicle id)`` of every candidate vehicle that can take
    ``request`` on its working route, in :func:`candidate_vehicles` order.

    An offer that found no vehicle, asking no route this dispatch extended,
    leaves a :class:`Refusal` in ``context.refusals``; while it holds, a
    later dispatch answers the request with ``[]`` and no search.  A driving
    vehicle's snapshot carries what it already answered, so one probe of its
    table settles a repeated offer: a known "no" costs nothing more, a known
    "yes" is returned as it stands, and only what is left reaches the kernel.
    """
    vehicles, oracle = _offer(request, context, routes, max_candidates), context.oracle
    found: list[tuple[InsertionOutcome, int]] = []
    for vehicle in vehicles or ():
        outcome = _ask(routes[vehicle.vehicle_id], request, oracle)
        if outcome.feasible:
            found.append((outcome, vehicle.vehicle_id))
    if vehicles is not None and not found:
        _refuse(request, context, routes, max_candidates, vehicles)
    return found


def cheapest_insertion(
    request: Request, context: DispatchContext, routes: WorkingRoutes, max_candidates: int | None
) -> tuple[InsertionOutcome, int] | None:
    """The feasible insertion whose schedule grows the least, the earlier
    candidate winning a tie; ``None`` when no vehicle can.

    The offer is :func:`feasible_insertions`' (refusal, candidates and the
    prefetch, which still warms the legs of idle candidates this skips: on
    the time grid a prefetched pair is the same float as a point query), but
    once a feasible insertion is known an idle candidate is not asked if its
    straight-line bound ``lower_bound(location, source) + cost(source,
    destination)``, which the kernel's price for it is at least, is above
    the best: it could neither win nor tie.
    """
    vehicles = _offer(request, context, routes, max_candidates)
    oracle, source = context.oracle, request.source
    best = trip = None
    for vehicle in vehicles or ():
        if best is not None and routes.idle(vehicle):
            # A cache hit: every feasible answer read this leg.
            trip = oracle.cost(source, request.destination) if trip is None else trip
            if oracle.lower_bound(vehicle.location, source) + trip > best[0].delta_cost:
                continue
        outcome = _ask(routes[vehicle.vehicle_id], request, oracle)
        if outcome.feasible and (best is None or outcome.delta_cost < best[0].delta_cost):
            best = outcome, vehicle.vehicle_id
    if vehicles is not None and best is None:
        _refuse(request, context, routes, max_candidates, vehicles)
    return best
