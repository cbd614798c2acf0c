"""Timed world events and the world view they mutate.

Events are the vocabulary of the dynamic-world scenario engine: each one is
scheduled at a point of simulated time and, when its time comes, mutates the
*world* -- the road network, the pending request pool or the fleet -- through
a :class:`WorldView` handed over by the simulator at the batch boundary.

Network-mutating events return the number of structural mutations they
performed so the simulator can hand the burst to the active
:class:`~repro.scenarios.refresh.OracleRefreshPolicy`, which decides whether
to rebuild the preprocessed routing structures now, serve the dirty window
through a Dijkstra fallback, or coalesce with later bursts.

Events may carry state across their lifetime (a closure remembers the edge
costs it removed so the paired reopening can restore them), so a timeline's
events must not be shared between simulation runs --
:meth:`~repro.scenarios.timeline.Scenario.make_timeline` builds fresh ones.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..events import EventKind
from ..exceptions import ConfigurationError, ScenarioError
from ..model.vehicle import Vehicle
from ..network.road_network import RoadNetwork


@dataclass
class WorldView:
    """Mutable world state the simulator exposes to events at a boundary.

    Events change the network and the fleet list; the pending pool, the
    vehicle index and the metrics are the simulator's, reached only through
    ``retire`` (the simulator re-indexes the fleet after a shift event).
    """

    now: float
    network: RoadNetwork
    oracle: Any
    vehicles: list[Vehicle]
    vehicles_by_id: dict[int, Vehicle]
    #: ``record(time, kind, subject, other=None)`` -- the run's event sink,
    #: ``kind`` an :class:`~repro.events.EventKind`.
    record: Callable[..., None] = field(default=lambda *args, **kwargs: None)
    #: ``retire(request_id, kind, time)`` -- take a request still pending
    #: out of the pool, counted and recorded as ``kind``; a no-op otherwise.
    retire: Callable[..., object] = field(default=lambda *args, **kwargs: False)
    #: Original costs a :class:`RestoreEdges` could not write back because
    #: the edge was closed at restore time; the reopening applies them after
    #: re-adding the edge, so interleaved waves and closures still leave the
    #: shared network exactly as it started.  The simulator passes one dict
    #: per run.
    cost_restores: dict[tuple[int, int], float] = field(default_factory=dict)


@dataclass
class WorldEvent:
    """Base class: one timed world mutation.

    ``apply`` returns the number of *network* mutations performed (0 for
    demand/fleet events) so the refresh policy can size the burst.
    """

    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigurationError(
                f"event time must be finite and non-negative (got {self.time!r})"
            )

    def apply(self, world: WorldView) -> int:
        raise NotImplementedError

    def _follows(self, paired: WorldEvent | None, kind: str) -> None:
        """Refuse an undo event without its paired ``kind`` event or before it."""
        name = type(self).__name__
        if paired is None:
            raise ConfigurationError(f"{name} needs its paired {kind} event")
        if self.time < paired.time:
            raise ConfigurationError(f"{name} at {self.time} precedes its {kind} at {paired.time}")


def _directed(
    edges: Sequence[tuple[int, int]], bidirectional: bool
) -> Iterator[tuple[int, int]]:
    """Expand undirected pairs into the directed edges an event touches.

    Each directed pair is yielded at most once, however the caller listed
    the edges -- ``[(u, v), (v, u)]`` with ``bidirectional=True`` must not
    scale an edge twice (its paired restoration would then replay both
    records in order and leave the second, scaled cost behind).
    """
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        for pair in ((u, v), (v, u)) if bidirectional else ((u, v),):
            if pair not in seen:
                seen.add(pair)
                yield pair


@dataclass
class ScaleEdges(WorldEvent):
    """Multiply the travel time of an edge set (traffic wave over a zone).

    A slowdown uses ``factor > 1``.  The pre-scaling costs are remembered on
    the event so a paired :class:`RestoreEdges` can restore free flow
    *exactly* (multiplying back by the inverse factor would leave ulp-level
    drift on the shared network run after run).  Edges missing at
    application time (e.g. closed by an earlier event) are skipped.
    """

    edges: Sequence[tuple[int, int]] = ()
    factor: float = 1.0
    bidirectional: bool = True
    #: ``(u, v, original_cost)`` triples actually scaled, filled on apply.
    scaled: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ConfigurationError(
                f"scale factor must be finite and positive (got {self.factor!r})"
            )

    def apply(self, world: WorldView) -> int:
        network = world.network
        self.scaled = []
        for u, v in _directed(self.edges, self.bidirectional):
            if network.has_edge(u, v):
                cost = network.edge_cost(u, v)
                network.add_edge(u, v, cost * self.factor)
                self.scaled.append((u, v, cost))
        if self.scaled:
            world.record(world.now, EventKind.EDGES_RESCALED, len(self.scaled))
        return len(self.scaled)


@dataclass
class RestoreEdges(WorldEvent):
    """Restore the exact pre-scaling costs of a paired :class:`ScaleEdges`."""

    scaling: ScaleEdges | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._follows(self.scaling, "ScaleEdges")

    def apply(self, world: WorldView) -> int:
        network = world.network
        mutations = 0
        for u, v, cost in self.scaling.scaled:
            if network.has_edge(u, v):
                network.add_edge(u, v, cost)
                mutations += 1
            else:
                # The edge is closed right now, so its closure recorded the
                # *scaled* cost; park the original so the reopening restores
                # free flow instead of baking the slowdown in.
                world.cost_restores[(u, v)] = cost
        self.scaling.scaled = []
        if mutations:
            world.record(world.now, EventKind.EDGES_RESCALED, mutations)
        return mutations


def traffic_wave(
    edges: Sequence[tuple[int, int]],
    factor: float,
    start: float,
    end: float,
    *,
    bidirectional: bool = True,
) -> list[WorldEvent]:
    """A slowdown over ``edges`` during ``[start, end)`` plus its recovery."""
    if end <= start:
        raise ConfigurationError(
            f"traffic wave window [{start}, {end}) must be non-empty"
        )
    scaling = ScaleEdges(start, edges, factor, bidirectional)
    return [scaling, RestoreEdges(end, scaling)]


@dataclass
class CloseEdges(WorldEvent):
    """Remove an edge set from the network (incident, bridge closure).

    The removed costs are remembered on the event so a paired
    :class:`ReopenEdges` can restore them.  An edge whose removal would leave
    its tail without outgoing or its head without incoming edges is skipped
    (a dead-ended node would strand vehicles), as are edges already absent.
    """

    edges: Sequence[tuple[int, int]] = ()
    bidirectional: bool = True
    #: ``(u, v, cost)`` triples actually removed, filled on apply.
    closed: list[tuple[int, int, float]] = field(default_factory=list)

    def apply(self, world: WorldView) -> int:
        network = world.network
        self.closed = []
        for u, v in _directed(self.edges, self.bidirectional):
            if not network.has_edge(u, v):
                continue
            if network.out_degree(u) <= 1 or sum(1 for _ in network.predecessors(v)) <= 1:
                continue
            cost = network.edge_cost(u, v)
            network.remove_edge(u, v)
            self.closed.append((u, v, cost))
        if self.closed:
            world.record(world.now, EventKind.ROAD_CLOSED, len(self.closed))
        return len(self.closed)


@dataclass
class ReopenEdges(WorldEvent):
    """Restore the edges removed by a paired :class:`CloseEdges` event."""

    closure: CloseEdges | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._follows(self.closure, "CloseEdges")

    def apply(self, world: WorldView) -> int:
        network = world.network
        mutations = 0
        for u, v, cost in self.closure.closed:
            if not network.has_edge(u, v):
                # A wave that receded while the edge was closed parked the
                # pre-wave cost; it wins over the closure-time (scaled) one.
                cost = world.cost_restores.pop((u, v), cost)
                network.add_edge(u, v, cost)
                mutations += 1
        self.closure.closed = []
        if mutations:
            world.record(world.now, EventKind.ROAD_REOPENED, mutations)
        return mutations


def road_closure(
    edges: Sequence[tuple[int, int]],
    start: float,
    end: float | None = None,
    *,
    bidirectional: bool = True,
) -> list[WorldEvent]:
    """A closure of ``edges`` at ``start``, reopened at ``end`` (if given)."""
    closure = CloseEdges(start, edges, bidirectional)
    if end is None:
        return [closure]
    return [closure, ReopenEdges(end, closure)]


@dataclass
class CancelRequests(WorldEvent):
    """Riders cancelling: drop still-pending requests without penalty.

    Requests already assigned to a vehicle (or not yet released) are left
    untouched -- cancellation is only honoured while the request waits in
    the pending pool, mirroring the no-show window of production systems.
    """

    request_ids: Sequence[int] = ()

    def apply(self, world: WorldView) -> int:
        for request_id in self.request_ids:
            world.retire(request_id, EventKind.REQUEST_CANCELLED, world.now)
        return 0


@dataclass
class VehicleShiftStart(WorldEvent):
    """New vehicles coming on shift (morning ramp-up, surge reinforcements).

    Carries ``(vehicle_id, location, capacity)`` specs instead of vehicle
    objects so one scenario can be replayed across runs; the vehicles are
    materialised at application time with their clock set to ``now``.
    """

    specs: Sequence[tuple[int, int, int]] = ()

    def apply(self, world: WorldView) -> int:
        for vehicle_id, location, capacity in self.specs:
            if vehicle_id in world.vehicles_by_id:
                raise ScenarioError(
                    f"shift start reuses vehicle id {vehicle_id}; ids must be unique"
                )
            if location not in world.network:
                raise ScenarioError(
                    f"shift start places vehicle {vehicle_id} on unknown node {location}"
                )
            vehicle = Vehicle(
                vehicle_id=vehicle_id,
                location=location,
                capacity=capacity,
                _clock=world.now,
            )
            world.vehicles.append(vehicle)
            world.vehicles_by_id[vehicle_id] = vehicle
            world.record(world.now, EventKind.VEHICLE_SHIFT_STARTED, vehicle_id)
        return 0


@dataclass
class VehicleShiftEnd(WorldEvent):
    """Vehicles going off shift: no new assignments, finish what they carry.

    Off-shift vehicles leave the dispatch candidate set and the spatial
    index immediately but keep driving their remaining schedule -- riders
    already onboard or committed are still delivered, exactly like a driver
    finishing their last trips after clocking out.  Unknown ids are ignored
    (the vehicle may never have come on shift in a scaled-down run).
    """

    vehicle_ids: Sequence[int] = ()

    def apply(self, world: WorldView) -> int:
        for vehicle_id in self.vehicle_ids:
            vehicle = world.vehicles_by_id.get(vehicle_id)
            if vehicle is None or not vehicle.on_shift:
                continue
            vehicle.on_shift = False
            world.record(world.now, EventKind.VEHICLE_SHIFT_ENDED, vehicle_id)
        return 0
