"""Vehicle schedules: way-points and feasibility.

A schedule (Definition 2) is an ordered list of way-points, each being the
pick-up or drop-off location of an assigned request.  A schedule is feasible
when it satisfies the coverage, order, capacity and deadline constraints.
Buffer times (Definition 3) -- how much extra detour each way-point can
absorb without violating any later deadline -- live on the priced route, see
:class:`~repro.model.vehicle.RouteProfile`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from ..exceptions import ScheduleError
from ..network.shortest_path import DistanceOracle
from .request import Request


class WaypointKind(enum.Enum):
    """Whether a way-point is a pick-up (source) or a drop-off (destination)."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True)
class Waypoint:
    """One stop of a schedule: the source or destination of a request."""

    request: Request
    kind: WaypointKind

    @property
    def node(self) -> int:
        """Road-network node of this stop."""
        if self.kind is WaypointKind.PICKUP:
            return self.request.source
        return self.request.destination

    @property
    def deadline(self) -> float:
        """Latest arrival time at this stop (``ddl(o_k)`` in the paper)."""
        if self.kind is WaypointKind.PICKUP:
            return self.request.latest_pickup
        return self.request.deadline

    @property
    def earliest_service(self) -> float:
        """Earliest time the stop can be serviced (pick-ups wait for release)."""
        if self.kind is WaypointKind.PICKUP:
            return self.request.release_time
        return -math.inf

    @property
    def load_delta(self) -> int:
        """Change in onboard riders when the stop is serviced."""
        if self.kind is WaypointKind.PICKUP:
            return self.request.riders
        return -self.request.riders

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tag = "+" if self.kind is WaypointKind.PICKUP else "-"
        return f"Waypoint({tag}{self.request.request_id}@{self.node})"


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Result of simulating a schedule from a given origin."""

    feasible: bool
    #: Total driving time over all legs (excludes waiting at stops).
    travel_cost: float
    #: Service time at each way-point (same length as the schedule) when
    #: feasible; truncated at the first violated way-point otherwise.
    arrival_times: tuple[float, ...]
    #: Human-readable reason for infeasibility (empty when feasible).
    reason: str = ""


class Schedule:
    """An immutable ordered sequence of :class:`Waypoint` objects.

    The class stores no costs itself; evaluation against a
    :class:`~repro.network.shortest_path.DistanceOracle` yields arrival
    times, feasibility and total travel cost.
    """

    __slots__ = ("_waypoints",)

    def __init__(self, waypoints: Iterable[Waypoint] = ()) -> None:
        self._waypoints: tuple[Waypoint, ...] = tuple(waypoints)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "Schedule":
        """The empty schedule."""
        return cls(())

    @classmethod
    def direct(cls, request: Request) -> "Schedule":
        """The two-stop schedule ``<source, destination>`` of one request."""
        return cls(
            (
                Waypoint(request, WaypointKind.PICKUP),
                Waypoint(request, WaypointKind.DROPOFF),
            )
        )

    # ------------------------------------------------------------------ #
    # sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._waypoints)

    def __iter__(self) -> Iterator[Waypoint]:
        return iter(self._waypoints)

    def __getitem__(self, index: int) -> Waypoint:
        return self._waypoints[index]

    def __bool__(self) -> bool:
        return bool(self._waypoints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._waypoints == other._waypoints

    def __hash__(self) -> int:
        return hash(self._waypoints)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Schedule({list(self._waypoints)!r})"

    @property
    def waypoints(self) -> tuple[Waypoint, ...]:
        """The way-points as an immutable tuple."""
        return self._waypoints

    def nodes(self) -> list[int]:
        """Road-network nodes visited, in order."""
        return [wp.node for wp in self._waypoints]

    def request_ids(self) -> set[int]:
        """Identifiers of every request appearing in the schedule."""
        return {wp.request.request_id for wp in self._waypoints}

    def requests(self) -> list[Request]:
        """Distinct requests appearing in the schedule (insertion order)."""
        seen: dict[int, Request] = {}
        for wp in self._waypoints:
            seen.setdefault(wp.request.request_id, wp.request)
        return list(seen.values())

    # ------------------------------------------------------------------ #
    # structural checks
    # ------------------------------------------------------------------ #
    def satisfies_order(self) -> bool:
        """Coverage + order constraints: each drop-off follows its pick-up and
        every picked-up request is eventually dropped off."""
        picked: set[int] = set()
        dropped: set[int] = set()
        for wp in self._waypoints:
            rid = wp.request.request_id
            if wp.kind is WaypointKind.PICKUP:
                if rid in picked or rid in dropped:
                    return False
                picked.add(rid)
            else:
                if rid in dropped:
                    return False
                # Drop-offs for onboard requests (no pickup in the remaining
                # schedule) are allowed; otherwise the pick-up must precede.
                dropped.add(rid)
        return picked <= dropped

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        oracle: DistanceOracle,
        origin: int,
        departure_time: float,
        *,
        capacity: int,
        initial_load: int = 0,
    ) -> ScheduleEvaluation:
        """Simulate driving the schedule starting at ``origin``.

        The vehicle departs ``origin`` at ``departure_time`` with
        ``initial_load`` riders onboard, drives the shortest path between
        consecutive way-points, waits at a pick-up if it arrives before the
        request's release time, and must reach every way-point before its
        deadline while never exceeding ``capacity`` riders.
        """
        if not self.satisfies_order():
            return ScheduleEvaluation(False, math.inf, (), "order constraint violated")
        load = initial_load
        clock = departure_time
        here = origin
        travel = 0.0
        arrivals: list[float] = []
        for index, wp in enumerate(self._waypoints):
            leg = oracle.cost(here, wp.node)
            if math.isinf(leg):
                return ScheduleEvaluation(
                    False, math.inf, tuple(arrivals),
                    f"way-point {index} unreachable",
                )
            travel += leg
            clock += leg
            # A pick-up cannot happen before the request is released.
            clock = max(clock, wp.earliest_service)
            if clock > wp.deadline:
                return ScheduleEvaluation(
                    False, math.inf, tuple(arrivals),
                    f"deadline violated at way-point {index}",
                )
            load += wp.load_delta
            if load > capacity:
                return ScheduleEvaluation(
                    False, math.inf, tuple(arrivals),
                    f"capacity exceeded at way-point {index}",
                )
            if load < 0:
                return ScheduleEvaluation(
                    False, math.inf, tuple(arrivals),
                    f"negative load at way-point {index}",
                )
            arrivals.append(clock)
            here = wp.node
        return ScheduleEvaluation(True, travel, tuple(arrivals))

    def travel_cost(
        self, oracle: DistanceOracle, origin: int
    ) -> float:
        """Total driving time of the schedule from ``origin`` (no feasibility)."""
        total = 0.0
        here = origin
        for wp in self._waypoints:
            total += oracle.cost(here, wp.node)
            here = wp.node
        return total

    # ------------------------------------------------------------------ #
    # editing
    # ------------------------------------------------------------------ #
    def with_insertion(
        self, request: Request, pickup_position: int, dropoff_position: int
    ) -> "Schedule":
        """Return a new schedule with ``request`` inserted.

        ``pickup_position`` is the index (in the current schedule) before
        which the pick-up is placed; ``dropoff_position`` is the index before
        which the drop-off is placed *after* the pick-up has been inserted,
        so ``dropoff_position`` must be strictly greater than
        ``pickup_position``.
        """
        n = len(self._waypoints)
        if not 0 <= pickup_position <= n:
            raise ScheduleError(f"pickup position {pickup_position} out of range")
        if not pickup_position < dropoff_position <= n + 1:
            raise ScheduleError(
                f"dropoff position {dropoff_position} must follow pickup "
                f"position {pickup_position}"
            )
        pickup = Waypoint(request, WaypointKind.PICKUP)
        dropoff = Waypoint(request, WaypointKind.DROPOFF)
        extended = list(self._waypoints)
        extended.insert(pickup_position, pickup)
        extended.insert(dropoff_position, dropoff)
        return Schedule(extended)

    def extended(self, waypoints: Sequence[Waypoint]) -> "Schedule":
        """Return a new schedule with ``waypoints`` appended."""
        return Schedule(self._waypoints + tuple(waypoints))
