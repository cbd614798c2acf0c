"""The batched dynamic ridesharing simulator.

One :class:`Simulator` instance runs one algorithm over one workload:

1. requests are partitioned into batches of ``Delta`` seconds,
2. at every batch boundary the vehicles whose next way-point is due advance
   along their schedules (and the ones that moved are re-indexed), requests
   that can no longer be picked up expire (and incur the penalty),
3. world events due at the boundary are applied (scenario engine): traffic
   waves, closures/reopenings, cancellations, vehicle shifts -- and the
   oracle refresh policy either repairs the backend or serves a
   Dijkstra-fallback window until a coalesced rebuild,
4. the dispatcher is called with the pending pool and returns what to do,
5. the engine, the one writer of the pool and the fleet, applies it; a
   vehicle that was idle becomes due at the next boundary,
6. after the last batch the refresh policy finalizes (no stale tail), the
   vehicles finish their remaining schedules and the final metrics are
   computed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import SimpleNamespace

from ..config import SimulationConfig
from ..dispatch.base import DispatchContext, Dispatcher, Refusals
from ..exceptions import DispatchError
from ..model.batch import Batch, BatchStream
from ..model.request import Request
from ..model.vehicle import IDLE_VEHICLE_BYTES, Vehicle
from ..network.grid_index import GridIndex
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..observability.trace import get_tracer
from ..resilience.degrade import ResilienceManager
from ..scenarios.events import VehicleShiftEnd, VehicleShiftStart, WorldView
from ..scenarios.refresh import OracleRefreshPolicy, make_refresh_policy
from ..scenarios.timeline import ScenarioTimeline
from .events import Event, EventKind, EventLog
from .metrics import BatchRecord, MetricsCollector

#: The ``METRICS`` counter of each way a request leaves the pending pool;
#: a rider rejected or expired is unserved for good and pays the penalty.
_EXITS = {
    EventKind.REQUEST_ASSIGNED: "assigned_requests",
    EventKind.REQUEST_REJECTED: "rejected_requests",
    EventKind.REQUEST_EXPIRED: "expired_requests",
    EventKind.REQUEST_CANCELLED: "cancelled_requests",
}
_PENALISED = (EventKind.REQUEST_REJECTED, EventKind.REQUEST_EXPIRED)


@dataclass
class SimulationResult:
    """Everything a benchmark or experiment needs from one simulation run."""

    algorithm: str
    metrics: MetricsCollector
    events: EventLog
    config: SimulationConfig

    @property
    def unified_cost(self) -> float:
        """Unified cost (Equation 3) of the run."""
        return self.metrics.unified_cost

    @property
    def service_rate(self) -> float:
        """Fraction of requests assigned to vehicles."""
        return self.metrics.service_rate

    def summary(self) -> dict[str, float]:
        """Flat metric dictionary, prefixed by the algorithm name elsewhere."""
        return self.metrics.summary()


@dataclass
class RunState:
    """Mutable state of one in-flight run (stepwise execution).

    Created by :meth:`Simulator.begin_run` and consumed batch by batch via
    :meth:`Simulator.process_batch` until :meth:`Simulator.end_run` closes
    the run.  The service layer (:mod:`repro.service`) drives this interface
    directly, which is why the classic :meth:`Simulator.run` is a thin loop
    over the same three calls -- service-mode and batch-mode runs execute
    identical code per batch.
    """

    metrics: MetricsCollector
    events: EventLog
    pending: dict[int, Request]
    vehicles_by_id: dict[int, Vehicle]
    #: Min-heap of ``(next service time, fleet position)``: exactly the
    #: vehicles that have a plan (see ``Simulator._advance_vehicles``).
    due: list[tuple[float, int]]
    #: End time of the last processed batch (the scenario drain anchor).
    last_time: float
    start_wall: float
    #: Called with every event the run emits, ``events.record`` first when on
    #: (:class:`repro.service.DispatchService` streams from here).  A
    #: listener runs inside the batch it observes and must not raise.
    listeners: list[Callable[[Event], None]] = field(default_factory=list)
    #: Vehicle id -> fleet position; the on-shift vehicles, by id and by rank.
    #: Rebuilt at run start and on shift events only (``Simulator._sync_fleet``).
    fleet_position: dict[int, int] = field(default_factory=dict)
    on_shift: list[Vehicle] = field(default_factory=list)
    on_shift_by_id: dict[int, Vehicle] = field(default_factory=dict)
    on_shift_rank: dict[int, int] = field(default_factory=dict)
    #: The standing refusal of each pending request (``feasible_insertions``);
    #: the engine touches it (``Refusals``) and drops it with its request.
    refusals: Refusals = field(default_factory=Refusals)
    #: Original costs a ``RestoreEdges`` found closed, for the reopening to
    #: apply; every ``WorldView`` of the run shares it.
    cost_restores: dict[tuple[int, int], float] = field(default_factory=dict)


# The simulator rejects positional construction: every call site names its
# collaborators (``network=``, ``oracle=``, ``config=``), the keyword
# convention shared with DistanceOracle and DispatchService.
@dataclass(kw_only=True)
class Simulator:
    """Drives one dispatcher over one workload."""

    network: RoadNetwork
    oracle: DistanceOracle
    vehicles: list[Vehicle]
    requests: list[Request]
    dispatcher: Dispatcher
    config: SimulationConfig
    record_events: bool = True
    #: Dynamic-world scenario: timed events applied at batch boundaries.
    timeline: ScenarioTimeline | None = None
    #: How the oracle follows network mutations (``None`` with a timeline:
    #: ``make_refresh_policy()``'s default).  A policy has no knobs:
    #: ``make_refresh_policy(config=scenario.config)`` only picks the
    #: scenario's own policy by name.
    refresh_policy: OracleRefreshPolicy | None = None
    #: Resilience layer: retries, circuit breakers, the pre-dispatch
    #: invariant probe and dispatcher degradation (see
    #: :mod:`repro.resilience`).  Setting it is the only switch; ``None``
    #: runs the classic unguarded pipeline.
    resilience: ResilienceManager | None = None
    _vehicle_index: GridIndex = field(init=False)
    _run: RunState | None = field(init=False, default=None, repr=False)
    _ran: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        if len({v.vehicle_id for v in self.vehicles}) != len(self.vehicles):
            raise DispatchError("vehicle identifiers must be unique")
        if len({r.request_id for r in self.requests}) != len(self.requests):
            raise DispatchError("request identifiers must be unique")
        if self.refresh_policy is None and self.timeline is not None:
            self.refresh_policy = make_refresh_policy()
        self._vehicle_index = GridIndex.for_network(self.network)

    # ------------------------------------------------------------------ #
    @property
    def run_state(self) -> RunState:
        """The in-flight run's state (stepwise mode only)."""
        if self._run is None:
            raise DispatchError("no run in progress; call begin_run() first")
        return self._run

    def run(self) -> SimulationResult:
        """Execute the whole simulation and return the collected metrics.

        Batch mode is stepwise mode with the trace known up front: slice the
        requests into a :class:`BatchStream` and feed every batch through
        :meth:`process_batch`.
        """
        stream = BatchStream(self.requests, self.config.batch_period)
        self.begin_run(start_time=stream.start_time)
        for batch in stream:
            self.process_batch(batch)
        return self.end_run()

    def begin_run(self, *, start_time: float = 0.0) -> None:
        """Initialise the one run a simulator makes (dispatcher, oracle stats, run state)."""
        if self._run is not None:
            raise DispatchError(
                "a run is already in progress; finish it with end_run() first"
            )
        if self._ran:  # its vehicles carry the finished run's state
            raise DispatchError("a simulator runs once; build a new one")
        self._ran = True
        start_wall = time.perf_counter()
        self.dispatcher.reset()
        self.oracle.stats.reset()
        if self.resilience is not None:
            self.resilience.begin_run(recorder=self._emit)
            if self.refresh_policy is not None:
                self.refresh_policy.resilience = self.resilience

        events = EventLog()
        self._run = RunState(
            metrics=MetricsCollector(),
            events=events,
            pending={},
            vehicles_by_id={vehicle.vehicle_id: vehicle for vehicle in self.vehicles},
            due=sorted(
                (vehicle.next_event_time(), position)
                for position, vehicle in enumerate(self.vehicles)
                if not vehicle.is_idle
            ),
            last_time=start_time,
            start_wall=start_wall,
            listeners=[events.record] if self.record_events else [],
        )
        self._sync_fleet()

    def process_batch(self, batch: Batch) -> BatchRecord | None:
        """Advance the world to ``batch.end_time`` and dispatch its pool.

        Returns the per-batch record, or ``None`` when the pending pool was
        empty and no dispatch ran (the clock still advances).
        """
        state = self.run_state
        state.last_time = batch.end_time
        state.metrics.total_requests += len(batch)
        tracer = get_tracer()
        tracer.set_sim_time(batch.end_time)
        with tracer.span("sim.advance", batch=batch.index):
            self._advance_vehicles(batch.end_time)
            self._expire_pending(batch.end_time)
        for request in batch:
            state.pending[request.request_id] = request
            self._emit(
                request.release_time, EventKind.REQUEST_RELEASED, request.request_id
            )
        with tracer.span("scenario.step", batch=batch.index):
            self._scenario_step(batch.end_time)
        if self.resilience is not None:
            # Recovery probes + invariant probes run between the scenario
            # step (where the refresh seams can inject corruption) and the
            # dispatch, so assignments are always priced on an oracle the
            # probe has just checked.
            with tracer.span("resilience.before_dispatch", batch=batch.index):
                self.resilience.before_dispatch(
                    self.network, self.oracle, batch.end_time
                )
            if (
                self.refresh_policy is not None
                and not self.oracle.serving_fallback
                and not self.oracle.is_stale
            ):
                # A breaker recovery probe may have rebuilt the oracle
                # outside the refresh policy; stop its stale clock.
                self.refresh_policy.stats.clear_stale()
        if not state.pending:
            return None
        record = self._dispatch_batch(batch)
        state.metrics.record_batch(record)
        return record

    def end_run(self) -> SimulationResult:
        """Close the run: drain the scenario tail, finish the fleet, total up.

        Fast-forwards the scenario tail -- events scheduled past the last
        batch (wave recoveries, reopenings, shift ends) are applied at the
        stream's end so paired events always balance out; a workload's
        network is shared across runs and must not stay mutated.  Then
        rebuilds anything still stale so the run's tail (vehicles finishing
        their schedules) is served from fresh structures, and lets the
        fleet finish every remaining stop.
        """
        state = self.run_state
        if self.timeline is not None and self.timeline.remaining:
            self._scenario_step(state.last_time, drain=True)
        if self.refresh_policy is not None:
            self.refresh_policy.finalize(self.oracle)
        if self.resilience is not None:
            self.resilience.finalize(self.network, self.oracle, state.last_time)
        self._advance_vehicles(math.inf)
        self._expire_pending(math.inf)
        metrics = self.collect()
        metrics.observe_memory(self._memory_estimate())
        self._run = None
        return SimulationResult(
            algorithm=self.dispatcher.name,
            metrics=metrics,
            events=state.events,
            config=self.config,
        )

    def collect(self) -> MetricsCollector:
        """Bring the in-flight run's metrics store up to date and return it.

        Copies in the counters other subsystems own (see ``METRICS``).  Runs
        when the run ends and whenever a live view is asked for (the
        service's ``stats`` / ``metric_rows``).
        """
        state = self.run_state
        policy = self.refresh_policy
        state.metrics.collect(
            oracle=self.oracle.stats,
            refresh=policy.stats if policy is not None else None,
            resilience=self.resilience,
            fleet=SimpleNamespace(
                total_travel_time=sum(v.total_travel_time for v in self.vehicles),
                completed=sum(len(v.completed) for v in self.vehicles),
            ),
        )
        state.metrics.wall_clock_seconds = time.perf_counter() - state.start_wall
        return state.metrics

    def _emit(
        self, when: float, kind: EventKind, subject: int, other: int | None = None
    ) -> None:
        """The run's one event sink: the engine's own transitions, the world
        events (``WorldView.record``) and the resilience manager's recorder,
        handed to the run's listeners (the event log first, when on)."""
        listeners = self.run_state.listeners
        if listeners:
            event = Event(when, kind, subject, other)
            for listener in listeners:
                listener(event)

    def _retire(
        self, request_id: int, kind: EventKind, when: float, vehicle_id: int | None = None
    ) -> bool:
        """The pending pool's one exit; ``False`` if the request is not in it.

        ``kind`` says how it left: its ``METRICS`` counter counts it, a
        rejected or expired one pays Equation 3's penalty, its refusal goes
        and the event is emitted."""
        state = self.run_state
        request = state.pending.pop(request_id, None)
        if request is None:
            return False
        state.refusals.pop(request_id, None)
        metrics, counter = state.metrics, _EXITS[kind]
        setattr(metrics, counter, getattr(metrics, counter) + 1)
        if kind in _PENALISED:
            metrics.penalty += self.config.penalty_coefficient * request.direct_cost
        self._emit(when, kind, request_id, vehicle_id)
        return True

    # ------------------------------------------------------------------ #
    # scenario engine
    # ------------------------------------------------------------------ #
    def _scenario_step(self, now: float, *, drain: bool = False) -> None:
        """Apply due world events and drive the oracle refresh policy.

        With ``drain`` every remaining event is applied at ``now`` (the
        post-stream fast-forward); the per-batch policy hook is skipped then
        because ``finalize`` runs right after.
        """
        state = self.run_state
        timeline, policy = self.timeline, self.refresh_policy
        if policy is not None and not drain:
            rebuilds_before = policy.stats.rebuilds
            more_due = timeline.has_due(now) if timeline is not None else False
            policy.on_batch_start(self.oracle, more_due)
            if policy.stats.rebuilds > rebuilds_before:
                self._emit(now, EventKind.ORACLE_REBUILT, 0)
        if timeline is None:
            return
        due = timeline.pop_due(math.inf if drain else now)
        if not due:
            return

        world = WorldView(
            now=now,
            network=self.network,
            oracle=self.oracle,
            vehicles=self.vehicles,
            vehicles_by_id=state.vehicles_by_id,
            record=self._emit,
            retire=self._retire,
            cost_restores=state.cost_restores,
        )
        mutations = 0
        for event in due:
            mutations += event.apply(world)
            state.metrics.scenario_events += 1
        if any(isinstance(event, (VehicleShiftStart, VehicleShiftEnd)) for event in due):
            self._sync_fleet()
        if mutations and policy is not None:
            rebuilds_before = policy.stats.rebuilds
            repairs_before = policy.stats.repairs
            policy.on_mutations(self.oracle)
            if policy.stats.rebuilds > rebuilds_before:
                self._emit(now, EventKind.ORACLE_REBUILT, mutations)
            if policy.stats.repairs > repairs_before:
                self._emit(now, EventKind.ORACLE_REPAIRED, mutations)
        timeline.notify(world)

    # ------------------------------------------------------------------ #
    # batch processing
    # ------------------------------------------------------------------ #
    def _dispatch_batch(self, batch: Batch) -> BatchRecord:
        state = self.run_state
        pending, on_shift_by_id = state.pending, state.on_shift_by_id
        dispatcher = self.dispatcher
        degraded = False
        if self.resilience is not None:
            dispatcher, degraded = self.resilience.select_dispatcher(self.dispatcher)
        context = DispatchContext(
            current_time=batch.end_time,
            batch=batch,
            pending=list(pending.values()),
            vehicles=state.on_shift,
            network=self.network,
            oracle=self.oracle,
            vehicle_index=self._vehicle_index,
            config=self.config,
            vehicles_by_id=on_shift_by_id,
            fleet_rank=state.on_shift_rank,
            refusals=state.refusals,
        )
        # The span brackets exactly the same window as ``dispatch_seconds``,
        # so the dispatcher's stage spans (its direct children) sum to the
        # recorded batch latency -- the property the observability tests pin.
        dispatch_start = time.perf_counter()
        with get_tracer().span(
            "dispatch.batch",
            batch=batch.index,
            algorithm=dispatcher.name,
            pending=len(context.pending),
            vehicles=len(context.vehicles),
            degraded=degraded,
        ):
            result = dispatcher.dispatch(context)
        dispatch_seconds = time.perf_counter() - dispatch_start
        if self.resilience is not None:
            self.resilience.observe_batch(degraded=degraded, now=batch.end_time)

        due, positions = state.due, state.fleet_position
        assigned = 0
        for assignment in result.assignments:
            vehicle = self._named(on_shift_by_id, assignment.vehicle_id, "assigned to")
            new_requests = [
                request
                for request in assignment.new_requests
                if request.request_id in pending
            ]
            if not new_requests:
                continue
            was_idle = vehicle.is_idle
            vehicle.assign_schedule(assignment.schedule, new_requests, batch.end_time)
            state.refusals.touch(self.network, vehicle.location)
            if was_idle:  # a vehicle under way keeps the heap entry it has
                heappush(due, (vehicle.next_event_time(), positions[vehicle.vehicle_id]))
            for request in new_requests:
                assigned += self._retire(
                    request.request_id, EventKind.REQUEST_ASSIGNED,
                    batch.end_time, vehicle.vehicle_id,
                )
        for vehicle_id, node, travel in result.repositions:
            vehicle = self._named(on_shift_by_id, vehicle_id, "repositioned")
            state.refusals.touch(self.network, vehicle.location, node)
            vehicle.reposition(node, travel, batch.end_time)
            self._vehicle_index.move(vehicle_id, *self.network.position(node))
        for request in result.rejected:
            self._retire(request.request_id, EventKind.REQUEST_REJECTED, batch.end_time)

        state.metrics.observe_memory(self._memory_estimate())
        self._emit(batch.end_time, EventKind.BATCH_DISPATCHED, batch.index)
        return BatchRecord(
            index=batch.index,
            start_time=batch.start_time,
            end_time=batch.end_time,
            released=len(batch),
            assigned=assigned,
            pending_after=len(pending),
            dispatch_seconds=dispatch_seconds,
            degraded=degraded,
        )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def _advance_vehicles(self, until: float) -> None:
        """Advance the vehicles whose next way-point is due by ``until``.

        Idle and mid-leg vehicles are not visited.  The due ones are visited
        in fleet order (the order of their ``REQUEST_COMPLETED`` events); one
        on shift that served a stop is touched, and re-indexed if it moved.
        """
        due, refusals = self.run_state.due, self.run_state.refusals
        positions = []
        while due and due[0][0] <= until:
            positions.append(heappop(due)[1])
        positions.sort()
        for position in positions:
            vehicle = self.vehicles[position]
            node, plan = vehicle.location, vehicle.schedule
            for request, drop_time in vehicle.advance_to(until, self.oracle):
                self._emit(
                    drop_time, EventKind.REQUEST_COMPLETED,
                    request.request_id, vehicle.vehicle_id,
                )
            if vehicle.schedule is not plan and vehicle.on_shift:
                refusals.touch(self.network, node, vehicle.location)
                if vehicle.location != node:
                    x, y = self.network.position(vehicle.location)
                    self._vehicle_index.move(vehicle.vehicle_id, x, y)
            if not vehicle.is_idle:
                heappush(due, (vehicle.next_event_time(), position))

    def _expire_pending(self, now: float) -> None:
        for request in [r for r in self.run_state.pending.values() if r.is_expired(now)]:
            self._retire(
                request.request_id, EventKind.REQUEST_EXPIRED,
                now if math.isfinite(now) else request.latest_pickup,
            )

    def _named(self, fleet: dict[int, Vehicle], vehicle_id: int, verb: str) -> Vehicle:
        """The vehicle of ``fleet`` a dispatch result names, known or not."""
        if vehicle_id not in fleet:
            raise DispatchError(f"{self.dispatcher.name} {verb} unknown vehicle {vehicle_id}")
        return fleet[vehicle_id]

    def _sync_fleet(self) -> None:
        """Rebuild the run's fleet maps from ``vehicles`` (see ``RunState``)
        and index exactly the on-shift fleet, at run start and after shift
        events; the refusals, all made on the old fleet, go."""
        state = self.run_state
        state.refusals.clear()
        state.fleet_position = {v.vehicle_id: p for p, v in enumerate(self.vehicles)}
        state.on_shift = [vehicle for vehicle in self.vehicles if vehicle.on_shift]
        state.on_shift_by_id = {v.vehicle_id: v for v in state.on_shift}
        state.on_shift_rank = {v.vehicle_id: rank for rank, v in enumerate(state.on_shift)}
        index, position = self._vehicle_index, self.network.position
        for vehicle in self.vehicles:
            if vehicle.on_shift:
                index.move(vehicle.vehicle_id, *position(vehicle.location))
            else:
                index.remove(vehicle.vehicle_id)

    def _memory_estimate(self) -> int:
        due = self.run_state.due
        planned = sum(
            self.vehicles[position].estimated_memory_bytes() for _, position in due
        )
        return (
            self.dispatcher.estimated_memory_bytes()
            + self._vehicle_index.estimated_memory_bytes()
            + planned
            + IDLE_VEHICLE_BYTES * (len(self.vehicles) - len(due))
        )
