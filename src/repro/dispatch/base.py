"""Common dispatcher interface and shared helpers."""

from __future__ import annotations

import abc
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from ..config import SimulationConfig
from ..insertion.linear_insertion import InsertionOutcome, best_insertion
from ..model.batch import Batch
from ..model.request import Request
from ..model.schedule import Schedule
from ..model.vehicle import RouteState, Vehicle
from ..network.grid_index import GridIndex
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..shareability.builder import DynamicShareabilityGraphBuilder


@dataclass
class DispatchContext:
    """Everything a dispatcher may consult when handling one batch.

    ``pending`` contains every unassigned, unexpired request known to the
    platform, including the requests of the current ``batch``.  Dispatchers
    must not mutate the vehicles; they return assignments and the simulator
    applies them.  They plan on :meth:`working_routes`, which snapshots the
    vehicles a candidate query actually names rather than the fleet.
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
    #: Mean driving speed in m/s, used to convert time slack to search radii.
    average_speed: float = 10.0
    #: ``vehicles`` by id and each one's position in ``vehicles``; built from
    #: them unless given (the engine keeps both, rebuilt on shift events).
    vehicles_by_id: dict[int, Vehicle] = field(default_factory=dict)
    fleet_rank: dict[int, int] = field(default_factory=dict)

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
            average_speed=self.average_speed,
        )


class WorkingRoutes(dict[int, RouteState]):
    """The routes one dispatch call plans on, by vehicle identifier.

    An entry starts as the vehicle's planning snapshot at the context's
    time, taken when the dispatcher first asks for it; :meth:`extend`
    overwrites the entry, so insertions within a batch compound, and records
    what the route was extended with for :meth:`assignments`.
    """

    def __init__(self, context: DispatchContext) -> None:
        super().__init__()
        self._fleet = context.vehicles_by_id
        self._now = context.current_time
        self._extended: dict[int, list[Request]] = {}

    def __missing__(self, vehicle_id: int) -> RouteState:
        route = self[vehicle_id] = self._fleet[vehicle_id].route_state(self._now)
        return route

    def extend(self, vehicle_id: int, schedule: Schedule, requests: Iterable[Request]) -> None:
        """Plan ``schedule`` for the vehicle; it newly serves ``requests``."""
        self[vehicle_id] = replace(self[vehicle_id], schedule=schedule)
        self._extended.setdefault(vehicle_id, []).extend(requests)

    def assignments(self) -> list[Assignment]:
        """One assignment per extended vehicle, in the order first extended."""
        return [
            Assignment(vehicle_id, self[vehicle_id].schedule, tuple(requests))
            for vehicle_id, requests in self._extended.items()
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
    """Assignments produced for one batch plus explicitly rejected requests.

    Requests that are neither assigned nor rejected stay in the pending pool
    and are offered again in the next batch (until they expire).
    """

    assignments: list[Assignment] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)

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

    def reset(self) -> None:
        """Forget any cross-batch state (called between simulations)."""

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


def candidate_vehicles(
    request: Request,
    context: DispatchContext,
    *,
    max_candidates: int | None = None,
) -> list[Vehicle]:
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
    slack = max(request.latest_pickup - now, 0.0)
    radius = max(context.average_speed * slack, 1.0)
    index = context.vehicle_index
    by_id = context.vehicles_by_id
    found = [by_id[vid] for vid in index.query_radius(x, y, radius) if vid in by_id]
    pool = found or context.vehicles
    if max_candidates is None or len(pool) <= max_candidates:
        return list(pool)
    if found:
        positions = (index.position(vehicle.vehicle_id) for vehicle in found)
        ranked = [
            (math.hypot(px - x, py - y), rank) for rank, (px, py) in enumerate(positions)
        ]
    else:
        rank_of = context.fleet_rank
        ranked = [(d, rank_of[vid]) for d, vid in index.k_nearest(x, y, max_candidates)]
    ranked.sort()
    cut = [pool[rank] for _, rank in ranked[:max_candidates]]
    if found:
        return cut
    speed, due = context.oracle.top_speed(), request.latest_pickup + 1e-9
    return [v for (d, _), v in zip(ranked, cut) if v.departure_time(now) + d / speed <= due]


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


def feasible_insertions(
    request: Request,
    context: DispatchContext,
    routes: WorkingRoutes,
    max_candidates: int | None,
) -> list[tuple[InsertionOutcome, int]]:
    """``(outcome, vehicle id)`` of every candidate vehicle that can take
    ``request`` on its working route, in :func:`candidate_vehicles` order.

    This is the one place a dispatcher asks a vehicle.  A driving vehicle's
    snapshot carries what it already answered, so one probe of its table
    settles a repeated offer: a known "no" costs nothing more, a known "yes"
    is returned as it stands, and only what is left reaches the kernel.  An
    idle vehicle departs at the tick time, so its snapshot is new and it is
    asked on every tick.
    """
    oracle = context.oracle
    asked: list[tuple[RouteState, InsertionOutcome | None]] = []
    origins: list[int] = []
    for vehicle in candidate_vehicles(request, context, max_candidates=max_candidates):
        route = routes[vehicle.vehicle_id]
        known = None
        if route.min_insert_position:
            known = route.outcomes(oracle).get(request)
        else:
            origins.append(route.origin)
        asked.append((route, known))
    # Batch the pick-up legs the kernel is about to read into one oracle
    # call (a reverse multi-source search for the graph backends, one join
    # per pair for hub labels).  That is ``origin -> source`` of the routes
    # open at position 0 only: behind a committed stop the kernel starts at
    # that stop's node and never asks for the leg from the origin.
    # ``prefetch`` leaves the logical query counters untouched.
    if origins:
        oracle.prefetch(origins, (request.source,))
    found: list[tuple[InsertionOutcome, int]] = []
    for route, outcome in asked:
        if outcome is None:
            outcome = best_insertion(route, request, oracle)
        if outcome.feasible:
            found.append((outcome, route.vehicle_id))
    return found


def cheapest_insertion(
    request: Request,
    context: DispatchContext,
    routes: WorkingRoutes,
    max_candidates: int | None,
) -> tuple[InsertionOutcome, int] | None:
    """The :func:`feasible_insertions` entry whose schedule grows the least,
    the earlier candidate winning a tie; ``None`` when no vehicle can."""
    best = None
    for found in feasible_insertions(request, context, routes, max_candidates):
        if best is None or found[0].delta_cost < best[0].delta_cost:
            best = found
    return best
