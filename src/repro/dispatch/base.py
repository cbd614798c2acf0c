"""Common dispatcher interface and shared helpers."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import cached_property

from ..config import SimulationConfig
from ..model.batch import Batch
from ..model.request import Request
from ..model.schedule import Schedule
from ..model.vehicle import RouteState, Vehicle
from ..network.grid_index import GridIndex
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle


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

    def working_routes(self) -> WorkingRoutes:
        """The routes one dispatch call plans on, snapshotted on first use."""
        return WorkingRoutes(self)

    @cached_property
    def vehicles_by_id(self) -> dict[int, Vehicle]:
        """The fleet keyed by vehicle identifier (built on first use)."""
        return {vehicle.vehicle_id: vehicle for vehicle in self.vehicles}

    @cached_property
    def fleet_rank(self) -> dict[int, int]:
        """Each vehicle's position in ``vehicles`` (built on first use)."""
        return {vehicle.vehicle_id: rank for rank, vehicle in enumerate(self.vehicles)}

    def vehicle_by_id(self, vehicle_id: int) -> Vehicle:
        """Look up a vehicle by identifier."""
        try:
            return self.vehicles_by_id[vehicle_id]
        except KeyError:
            raise KeyError(f"unknown vehicle {vehicle_id}") from None


class WorkingRoutes(dict[int, RouteState]):
    """The routes one dispatch call plans on, by vehicle identifier.

    An entry starts as the vehicle's planning snapshot at the context's
    time, taken when the dispatcher first asks for it; a dispatcher that
    extends a route overwrites the entry, so insertions within a batch
    compound.
    """

    def __init__(self, context: DispatchContext) -> None:
        super().__init__()
        self._fleet = context.vehicles_by_id
        self._now = context.current_time

    def __missing__(self, vehicle_id: int) -> RouteState:
        route = self[vehicle_id] = self._fleet[vehicle_id].route_state(self._now)
        return route


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
    context: DispatchContext,
    requests: list[Request],
    *,
    max_candidates: int | None = None,
) -> dict[int, list[Request]]:
    """Invert :func:`candidate_vehicles`: which requests could each vehicle serve.

    Batch dispatchers that enumerate groups per vehicle (GAS, RTV) use this
    mapping as their RV-edge pruning: a vehicle only considers the requests
    whose pick-up it can plausibly reach before the waiting deadline.
    """
    mapping: dict[int, list[Request]] = {vehicle.vehicle_id: [] for vehicle in context.vehicles}
    for request in requests:
        for vehicle in candidate_vehicles(request, context, max_candidates=max_candidates):
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
    query, not from sorting the fleet.
    """
    x, y = context.network.position(request.source)
    slack = max(request.latest_pickup - context.current_time, 0.0)
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
        fleet_rank = context.fleet_rank
        ranked = [
            (distance, fleet_rank[vid])
            for distance, vid in index.k_nearest(x, y, max_candidates)
        ]
    ranked.sort()
    return [pool[rank] for _, rank in ranked[:max_candidates]]
