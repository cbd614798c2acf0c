"""Capacitated vehicles that move along their schedules over simulated time."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from ..exceptions import ScheduleError
from ..network.shortest_path import DistanceOracle
from .request import Request
from .schedule import Schedule, WaypointKind

if TYPE_CHECKING:
    from ..insertion.linear_insertion import InsertionOutcome

#: Slack comparisons closer than this to a deadline are re-simulated exactly.
_SLACK_MARGIN = 1e-6

#: ``Vehicle.estimated_memory_bytes`` of a vehicle without a plan.
IDLE_VEHICLE_BYTES = 200


class RouteProfile(NamedTuple):
    """A route driven once, left to right, as flat read-only arrays.

    Way-point ``k`` of an ``n``-stop route is described by the per-stop
    arrays; the ``*_at`` arrays have ``n + 1`` entries and describe the
    vehicle just *before* position ``k`` (entry 0 is the route's origin).
    Clocks and travel sums are accumulated in exactly the order
    :meth:`Schedule.evaluate` uses, so a walk resumed from them is
    bit-identical to one started at the origin.
    """

    #: Leg into stop ``k`` from its predecessor (the origin for ``k == 0``).
    legs: list[float]
    #: Earliest service time of stop ``k`` (a pick-up's release time).
    releases: list[float]
    #: Deadline of stop ``k`` plus the evaluation tolerance of 1e-9.
    due: list[float]
    #: Node, departure clock, onboard load and travelled cost before
    #: position ``k``.
    node_at: list[int]
    clock_at: list[float]
    load_at: list[int]
    travel_at: list[float]
    #: Stops ``0 .. open_until - 1`` are reachable, on time and within
    #: capacity; no position beyond ``open_until`` can take a new stop
    #: (-1: the stops violate the order constraint, so no position can).
    open_until: int
    #: Arriving at stop ``k`` no later than ``safe_by[k]`` keeps stops
    #: ``k ..`` feasible (Definition 3's slack, less the margin); arriving
    #: after ``late_after[k]`` breaks one of them.  Between the two, only
    #: an exact walk of the tail decides.
    safe_by: list[float]
    late_after: list[float]
    #: Requests with a stop on the route.
    request_ids: frozenset[int]

    @property
    def travel_cost(self) -> float:
        """Driving time of the whole route (``Schedule.travel_cost``)."""
        return self.travel_at[-1]


def _price_route(route: "RouteState", oracle: DistanceOracle) -> RouteProfile:
    """Drive ``route`` once and derive the slack of every stop."""
    waypoints = route.schedule.waypoints
    n = len(waypoints)
    capacity = route.capacity
    cost = oracle.cost
    legs: list[float] = []
    releases: list[float] = []
    due: list[float] = []
    node_at = [route.origin]
    clock_at = [route.departure_time]
    load_at = [route.onboard]
    travel_at = [0.0]
    here, clock, load, travel = route.origin, route.departure_time, route.onboard, 0.0
    open_until = n if route.schedule.satisfies_order() else -1
    horizon = abs(clock)
    for index, waypoint in enumerate(waypoints):
        request = waypoint.request
        if waypoint.kind is WaypointKind.PICKUP:
            node, release, deadline = request.source, request.release_time, request.latest_pickup
            load += request.riders
        else:
            node, release, deadline = request.destination, -math.inf, request.deadline
            load -= request.riders
        leg = cost(here, node)
        travel += leg
        clock += leg
        if clock < release:
            clock = release
        late = deadline + 1e-9
        if open_until > index and (
            leg == math.inf or clock > late or not 0 <= load <= capacity
        ):
            open_until = index
        legs.append(leg)
        releases.append(release)
        due.append(late)
        node_at.append(node)
        clock_at.append(clock)
        load_at.append(load)
        travel_at.append(travel)
        here = node
        if horizon < deadline < math.inf:
            horizon = deadline

    # Backwards: ``latest`` is the latest arrival at stop k that keeps every
    # deadline from k on (ignoring releases), ``gap`` the smallest distance
    # of a release in that tail from its own latest arrival.  Rounding in
    # this pass differs from the forward walk's, hence the margin.
    margin = max(_SLACK_MARGIN, 1e-12 * horizon)
    safe_by = [0.0] * n
    late_after = [0.0] * n
    latest = gap = math.inf
    for k in range(n - 1, -1, -1):
        if due[k] < latest:
            latest = due[k]
        if latest == -math.inf or not 0 <= load_at[k + 1] <= capacity:
            gap = -math.inf
        elif latest - releases[k] < gap:
            gap = latest - releases[k]
        if gap < -margin:
            latest = -math.inf
        safe_by[k] = latest - margin if gap > margin else -math.inf
        late_after[k] = latest + margin
        latest = -math.inf if legs[k] == math.inf else latest - legs[k]
    return RouteProfile(
        legs, releases, due, node_at, clock_at, load_at, travel_at,
        open_until, safe_by, late_after,
        frozenset(wp.request.request_id for wp in waypoints),
    )


@dataclass(frozen=True)
class RouteState:
    """Snapshot of a vehicle handed to dispatchers for planning.

    ``origin`` / ``departure_time`` are the node and the moment from which
    the remaining schedule should be evaluated.  When the vehicle is driving
    a leg, the first way-point is *committed*: new stops may only be inserted
    at positions >= ``min_insert_position``.
    """

    vehicle_id: int
    origin: int
    departure_time: float
    schedule: Schedule
    capacity: int
    onboard: int
    min_insert_position: int = 0
    #: What has been derived from this snapshot so far: ``[oracle,
    #: oracle.generation, profile or None, insertion outcome per request,
    #: the one infeasible outcome or None]``.
    _derived: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def free_seats(self) -> int:
        """Seats not occupied by onboard riders."""
        return self.capacity - self.onboard

    def _derived_with(self, oracle: DistanceOracle) -> list:
        derived = self._derived
        if derived is None or derived[0] is not oracle or derived[1] != oracle.generation:
            derived = [oracle, oracle.generation, None, {}, None]
            object.__setattr__(self, "_derived", derived)
        return derived

    def profile(self, oracle: DistanceOracle) -> RouteProfile:
        """The route priced with ``oracle``, computed once per plan.

        A driving vehicle hands out the same snapshot until its plan changes
        (see :meth:`Vehicle.route_state`), so the profile and the
        :meth:`outcomes` table outlive the batch.  Both are valid while the
        snapshot's fields describe the vehicle, ``oracle`` is the same
        object and its ``generation`` is unchanged; anything else starts
        them over.
        """
        derived = self._derived_with(oracle)
        if derived[2] is None:
            derived[2] = _price_route(self, oracle)
        return derived[2]

    def outcomes(self, oracle: DistanceOracle) -> dict[Request, InsertionOutcome]:
        """Insertions already answered on this snapshot with ``oracle``.

        Filled by :func:`~repro.insertion.linear_insertion.best_insertion`;
        valid exactly as long as :meth:`profile`.
        """
        return self._derived_with(oracle)[3]

    def refusal(self, oracle: DistanceOracle) -> InsertionOutcome:
        """The "no feasible placement" outcome every refusal by this snapshot
        shares, built on the first one; kept exactly as long as :meth:`profile`.
        """
        derived = self._derived_with(oracle)
        if derived[4] is None:
            # The outcome type lives a layer up, next to the kernel.
            from ..insertion.linear_insertion import InsertionOutcome

            derived[4] = InsertionOutcome.infeasible(self.schedule)
        return derived[4]


@dataclass
class Vehicle:
    """A vehicle ``w_j`` with a capacity, a location and a planned schedule.

    The vehicle's clock (``_clock``) is the time at which the vehicle is at
    ``location`` ready to depart.  Movement between way-points is committed
    whole legs at a time: once a leg has started, it completes at the
    shortest-path travel time of that leg.
    """

    vehicle_id: int
    location: int
    capacity: int = 3
    schedule: Schedule = field(default_factory=Schedule.empty)
    #: Riders currently inside the vehicle.
    onboard: int = 0
    #: Requests assigned but not yet completed, keyed by request id.
    active_requests: dict[int, Request] = field(default_factory=dict)
    #: Completed requests with their drop-off times.
    completed: list[tuple[Request, float]] = field(default_factory=list)
    #: Total realized driving time, in seconds.
    total_travel_time: float = 0.0
    #: Off-shift vehicles (scenario shift-end events) finish their remaining
    #: schedule but receive no new assignments and leave the spatial index.
    on_shift: bool = True
    _clock: float = 0.0
    #: Arrival time at the first way-point of the schedule when the vehicle
    #: is driving; ``None`` when idle.
    _leg_arrival: float | None = None
    #: Travel time of the leg currently being driven.
    _pending_leg_cost: float = 0.0
    #: The snapshot last handed out while driving (see :meth:`route_state`).
    _snapshot: RouteState | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # planning interface
    # ------------------------------------------------------------------ #
    def route_state(self, current_time: float) -> RouteState:
        """Return the planning snapshot of this vehicle at ``current_time``.

        A driving vehicle's snapshot does not depend on ``current_time``, so
        the one handed out last is handed out again while its fields still
        describe the vehicle -- and with it what was derived from it.  An
        idle vehicle departs at ``current_time`` and gets a new one per call.
        """
        departure = self.departure_time(current_time)
        if self.schedule and self._leg_arrival is not None:
            # Driving: the first remaining way-point is committed.
            snapshot = self._snapshot
            if (
                snapshot is None
                or snapshot.schedule is not self.schedule
                or snapshot.departure_time != departure
                or snapshot.origin != self.location
                or snapshot.onboard != self.onboard
                or snapshot.capacity != self.capacity
            ):
                snapshot = self._snapshot = RouteState(
                    vehicle_id=self.vehicle_id,
                    origin=self.location,
                    departure_time=departure,
                    schedule=self.schedule,
                    capacity=self.capacity,
                    onboard=self.onboard,
                    min_insert_position=1,
                )
            return snapshot
        self._snapshot = None
        return RouteState(
            vehicle_id=self.vehicle_id,
            origin=self.location,
            departure_time=departure,
            schedule=self.schedule,
            capacity=self.capacity,
            onboard=self.onboard,
            min_insert_position=0,
        )

    def departure_time(self, current_time: float) -> float:
        """When a plan made at ``current_time`` leaves :attr:`location`."""
        driving = self.schedule and self._leg_arrival is not None
        return self._clock if driving else max(self._clock, current_time)

    @property
    def is_idle(self) -> bool:
        """True when the vehicle has no remaining way-points."""
        return len(self.schedule) == 0

    @property
    def assigned_request_ids(self) -> set[int]:
        """Identifiers of requests currently assigned to this vehicle."""
        return set(self.active_requests)

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #
    def assign_schedule(
        self,
        schedule: Schedule,
        new_requests: list[Request],
        current_time: float,
    ) -> None:
        """Replace the remaining schedule and register newly accepted requests.

        The new schedule must keep every previously assigned (uncompleted)
        request and, when the vehicle is mid-leg, keep the committed first
        way-point in place.
        """
        previous_ids = set(self.active_requests)
        new_ids = {r.request_id for r in new_requests}
        missing = previous_ids - schedule.request_ids()
        if missing:
            raise ScheduleError(
                f"vehicle {self.vehicle_id}: new schedule drops active requests {missing}"
            )
        if self._leg_arrival is not None and self.schedule:
            committed = self.schedule[0]
            if not schedule or schedule[0] != committed:
                raise ScheduleError(
                    f"vehicle {self.vehicle_id}: committed way-point {committed!r} "
                    "must stay first while the vehicle is driving"
                )
        for request in new_requests:
            self.active_requests[request.request_id] = request
        was_idle = not self.schedule
        self.schedule = schedule
        if was_idle:
            self._clock = max(self._clock, current_time)
            self._leg_arrival = None
        # The request ids in ``new_ids`` not present in the schedule would be
        # a dispatcher bug: catch it early.
        absent = new_ids - schedule.request_ids()
        if absent:
            raise ScheduleError(
                f"vehicle {self.vehicle_id}: accepted requests {absent} missing "
                "from the assigned schedule"
            )

    # ------------------------------------------------------------------ #
    # movement
    # ------------------------------------------------------------------ #
    def reposition(self, node: int, travel_time: float, now: float) -> None:
        """Relocate an idle vehicle: ready at ``node`` ``travel_time`` after ``now``.

        The move is committed whole and charged to the odometer, so the
        vehicle cannot serve anyone before it (virtually) arrives.
        """
        if self.schedule:
            raise ScheduleError(
                f"vehicle {self.vehicle_id}: only an idle vehicle can be repositioned"
            )
        self.total_travel_time += travel_time
        self._clock = max(self._clock, now) + travel_time
        self.location = node

    def advance_to(self, time: float, oracle: DistanceOracle) -> list[tuple[Request, float]]:
        """Drive along the schedule until ``time``; return completed requests.

        Way-points are processed whenever their arrival time is within the
        horizon.  The returned list contains ``(request, drop_off_time)``
        pairs for requests completed during this advance.
        """
        completed_now: list[tuple[Request, float]] = []
        while self.schedule:
            waypoint = self.schedule[0]
            if self._leg_arrival is None:
                leg_cost = oracle.cost(self.location, waypoint.node)
                if math.isinf(leg_cost):
                    raise ScheduleError(
                        f"vehicle {self.vehicle_id}: way-point {waypoint!r} unreachable"
                    )
                departure = max(self._clock, waypoint.earliest_service - leg_cost)
                self._leg_arrival = departure + leg_cost
                self._pending_leg_cost = leg_cost
            arrival = self._leg_arrival
            service_time = max(arrival, waypoint.earliest_service)
            if service_time > time:
                break
            # Arrive and service the way-point.
            self.total_travel_time += self._pending_leg_cost
            self.location = waypoint.node
            self._clock = service_time
            self._leg_arrival = None
            if waypoint.kind is WaypointKind.PICKUP:
                self.onboard += waypoint.request.riders
            else:
                self.onboard -= waypoint.request.riders
                request = self.active_requests.pop(waypoint.request.request_id, None)
                if request is not None:
                    self.completed.append((request, service_time))
                    completed_now.append((request, service_time))
            self.schedule = Schedule(self.schedule.waypoints[1:])
        if not self.schedule:
            self._clock = max(self._clock, time)
            self._leg_arrival = None
        return completed_now

    def next_event_time(self) -> float:
        """Time at which the vehicle services its next way-point.

        ``inf`` when idle.  Read from the leg under way, never from the
        oracle: a plan assigned to an idle vehicle has no priced leg until
        the next :meth:`advance_to`, so that vehicle is due at once (``-inf``).
        """
        if not self.schedule:
            return math.inf
        if self._leg_arrival is None:
            return -math.inf
        return max(self._leg_arrival, self.schedule[0].earliest_service)

    def estimated_memory_bytes(self) -> int:
        """Rough memory footprint of the vehicle state (for the memory study)."""
        return IDLE_VEHICLE_BYTES + 80 * len(self.schedule) + 60 * len(self.active_requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Vehicle({self.vehicle_id} at {self.location}, cap={self.capacity}, "
            f"onboard={self.onboard}, stops={len(self.schedule)})"
        )
