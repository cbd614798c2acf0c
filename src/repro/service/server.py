"""The dispatch service: a long-lived, event-streaming front of the simulator.

:class:`DispatchService` turns the batch :class:`~repro.simulation.Simulator`
into a request/response service: clients submit typed
:class:`~repro.service.schemas.RideRequest` payloads through a bounded
:class:`~repro.service.queue.IngestionQueue`, a virtual-clock batch tick
drains everything due into the dispatcher, and typed
:class:`~repro.service.schemas.AssignmentEvent` records stream to
subscribers.  The service listens on the engine's event sink and keeps its
own bounded history, so its simulator retains no event log of its own
(``ServiceResult.simulation.events`` is empty).  Health and stats
endpoints expose the run through the metrics tables and the resilience
breaker states.

Parity with batch mode is by construction, not by re-implementation: the
service drives the simulator's stepwise interface (``begin_run`` /
``process_batch`` / ``end_run``) -- the very calls ``Simulator.run`` makes
-- and its tick builds batch windows with the same alignment rule as
:class:`~repro.model.batch.BatchStream` (first window starts at
``floor(first_release / Delta) * Delta``; half-open ``[start, end)``
membership; empty windows between occupied ones are processed too).  Feed
the same trace through :meth:`DispatchService.serve` and through
``Simulator.run`` and the assignments are identical.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..config import ServiceConfig, SimulationConfig
from ..dispatch.base import Dispatcher
from ..exceptions import ServiceError, UnreachableError
from ..model.batch import Batch
from ..model.request import Request
from ..model.vehicle import Vehicle
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..resilience.degrade import BreakerState, ResilienceManager
from ..scenarios.refresh import OracleRefreshPolicy
from ..scenarios.timeline import ScenarioTimeline
from ..simulation.engine import SimulationResult, Simulator
from ..simulation.events import Event, EventKind
from ..simulation.metrics import METRICS, BatchRecord, MetricsCollector, MetricSpec, export_rows
from .queue import Admission, IngestionQueue
from .schemas import (
    AssignmentEvent,
    AssignmentEventKind,
    RejectionReason,
    RideRequest,
    ServiceStats,
)

#: How engine event kinds translate to service assignment events:
#: ``kind -> (service kind, rejection reason, other-field-is-vehicle)``.
#: Read-only constant -- per-run state lives on the service instance.
_EVENT_MAP: dict[
    EventKind, tuple[AssignmentEventKind, RejectionReason | None, bool]
] = {
    EventKind.REQUEST_ASSIGNED: (AssignmentEventKind.ASSIGNED, None, True),
    EventKind.REQUEST_COMPLETED: (AssignmentEventKind.COMPLETED, None, True),
    EventKind.REQUEST_EXPIRED: (
        AssignmentEventKind.EXPIRED, RejectionReason.EXPIRED, False
    ),
    EventKind.REQUEST_REJECTED: (
        AssignmentEventKind.REJECTED, RejectionReason.DISPATCH_REJECTED, False
    ),
    EventKind.REQUEST_CANCELLED: (AssignmentEventKind.CANCELLED, None, False),
}

#: Service-rate objective: the fraction of accepted requests that must be
#: assigned for the service to report a healthy SLO.  A sustained requests/s
#: number is only meaningful at this SLO -- throughput with unbounded
#: rejections is free.
SLO_SERVICE_RATE = 0.75

#: Hard cap on the batches a shutdown drain may tick -- a defence against a
#: virtual clock that would take forever to reach the queue tail.
MAX_DRAIN_BATCHES = 100_000

_M = MetricSpec
#: The ``service.*`` exported rows, keyed by :class:`ServiceStats` field.
SERVICE_METRICS: tuple[MetricSpec, ...] = (
    _M("received", "Requests offered to the service", "service.received"),
    _M("accepted", "Requests admitted into the queue", "service.accepted"),
    _M("rejected", "Requests rejected (all reasons)", "service.rejected"),
    _M("events_dropped", "Assignment events past the history cap", "service.events_dropped"),
    _M("batches", "Batch windows the service ticked", "service.batches"),
    _M("queue_depth", "Requests currently queued", "service.queue_depth", "gauge"),
    _M("sim_time", "Virtual time of the last batch boundary", "service.sim_time", "gauge"),
)


@dataclass(frozen=True)
class ServiceResult:
    """Everything a service run produced, returned by ``shutdown``/``serve``."""

    #: The underlying simulation result (metrics, config; no event log).
    simulation: SimulationResult
    #: Final admission/throughput snapshot.
    stats: ServiceStats
    #: Retained assignment-event history (bounded by ``event_history``).
    events: tuple[AssignmentEvent, ...]

    @property
    def unified_cost(self) -> float:
        """Unified cost (Equation 3) of the underlying run."""
        return self.simulation.unified_cost

    @property
    def service_rate(self) -> float:
        """Assigned / accepted requests (the service-boundary rate)."""
        return self.stats.service_rate

    @property
    def slo_met(self) -> bool:
        """True when the run's service rate reached :data:`SLO_SERVICE_RATE`."""
        return self.stats.service_rate >= SLO_SERVICE_RATE


class DispatchService:
    """Long-lived dispatch loop: admit, batch on a virtual clock, stream.

    Construction is keyword-only and uses the same collaborator names as
    :class:`~repro.simulation.Simulator` and
    :class:`~repro.network.shortest_path.DistanceOracle` (``network=``,
    ``oracle=``, ``config=``).  A service instance runs once:
    :meth:`start`, any number of :meth:`submit` / :meth:`tick` rounds,
    :meth:`shutdown`; construct a new instance for a new run.
    """

    def __init__(
        self,
        *,
        network: RoadNetwork,
        oracle: DistanceOracle,
        vehicles: list[Vehicle],
        dispatcher: Dispatcher,
        config: SimulationConfig,
        service_config: ServiceConfig | None = None,
        timeline: ScenarioTimeline | None = None,
        refresh_policy: OracleRefreshPolicy | None = None,
        resilience: ResilienceManager | None = None,
    ) -> None:
        self.network = network
        self.oracle = oracle
        self.config = config
        self.service_config = service_config or ServiceConfig()
        self._sim = Simulator(
            network=network,
            oracle=oracle,
            vehicles=vehicles,
            requests=[],
            dispatcher=dispatcher,
            config=config,
            record_events=False,
            timeline=timeline,
            refresh_policy=refresh_policy,
            resilience=resilience,
        )
        self._queue = IngestionQueue(
            capacity=self.service_config.queue_capacity,
            policy=self.service_config.admission_policy,
        )
        self._started = False
        self._stopped = False
        self._result: ServiceResult | None = None
        #: The run's metrics store: empty until :meth:`start`, then the
        #: engine's own (and, after shutdown, the finished result's).
        self._metrics = MetricsCollector()
        #: Start of the next batch window; aligned on the first tick.
        self._next_start: float | None = None
        #: Batches processed so far, which is also the next batch's index.
        self._batches = 0
        self._sim_time = 0.0
        #: Batch index stamped on streamed engine events (``None`` for the
        #: end-of-run tail).
        self._streaming_batch: int | None = None
        self._history: deque[AssignmentEvent] = deque(
            maxlen=self.service_config.event_history
        )
        self._events_dropped = 0
        self._subscribers: list[Callable[[AssignmentEvent], None]] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """True once :meth:`start` ran (stays true after shutdown)."""
        return self._started

    @property
    def stopped(self) -> bool:
        """True once :meth:`shutdown` completed."""
        return self._stopped

    @property
    def queue(self) -> IngestionQueue:
        """The ingestion queue (introspection; submit via the service)."""
        return self._queue

    @property
    def vehicles(self) -> list[Vehicle]:
        """The fleet the service dispatches over."""
        return self._sim.vehicles

    @property
    def dispatcher(self) -> Dispatcher:
        """The primary dispatcher."""
        return self._sim.dispatcher

    def start(self) -> None:
        """Begin the run: reset collaborators, open the dispatch loop."""
        if self._stopped:
            raise ServiceError(
                "service instances run once; construct a new DispatchService"
            )
        if self._started:
            raise ServiceError("service already started")
        self._sim.begin_run()
        state = self._sim.run_state
        state.listeners.append(self._on_engine_event)
        self._metrics = state.metrics
        self._started = True

    def shutdown(self) -> ServiceResult:
        """Stop admitting, drain, close the run, total up.

        Every queued request still gets its dispatch opportunity: the
        virtual clock ticks forward until the queue is empty, capped at
        :data:`MAX_DRAIN_BATCHES`.
        """
        self._require_running()
        self._queue.close()
        for _ in range(MAX_DRAIN_BATCHES):
            if self._queue.depth == 0:
                break
            self.tick()
        if self._queue.depth > 0:
            raise ServiceError(
                f"shutdown drain exceeded {MAX_DRAIN_BATCHES} batches with "
                f"{self._queue.depth} request(s) still queued"
            )
        self._streaming_batch = None
        simulation = self._sim.end_run()
        self._stopped = True
        self._result = ServiceResult(
            simulation=simulation,
            stats=self.stats(),
            events=tuple(self._history),
        )
        return self._result

    @property
    def result(self) -> ServiceResult:
        """The finished run's result (only after :meth:`shutdown`)."""
        if self._result is None:
            raise ServiceError("service has not been shut down yet")
        return self._result

    def _require_running(self) -> None:
        if not self._started:
            raise ServiceError("service not started; call start() first")
        if self._stopped:
            raise ServiceError("service already stopped")

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(self, request: RideRequest | Request) -> Admission:
        """Offer one request for admission (non-blocking).

        Internal :class:`~repro.model.request.Request` objects are wrapped
        loss-free, finite times only (an infinite ``deadline`` or ``max_wait``
        raises ``SchemaError``); payloads whose endpoints are not nodes of the
        service's road network are refused with ``UNKNOWN_NODE`` before
        touching the queue.  Every rejection (including a request shed under
        ``drop_oldest``) is also streamed as a ``rejected`` assignment event.
        """
        ride, refused = self._screen(request)
        if refused is not None:
            return refused
        admission = self._queue.offer(ride)
        self._emit_admission(ride, admission)
        return admission

    async def asubmit(self, request: RideRequest | Request) -> Admission:
        """Admit one request, awaiting while the queue is full.

        The async twin of :meth:`submit`: under the ``reject`` policy a
        full queue blocks the submitter (backpressure) until a tick frees
        space, instead of returning a ``QUEUE_FULL`` rejection.
        """
        ride, refused = self._screen(request)
        if refused is not None:
            return refused
        admission = await self._queue.put(ride)
        self._emit_admission(ride, admission)
        return admission

    def _coerce(self, request: RideRequest | Request) -> RideRequest:
        if isinstance(request, Request):
            return RideRequest.from_request(request)
        return request

    def _screen(self, request: RideRequest | Request) -> tuple[RideRequest, Admission | None]:
        """The payload of ``request`` and, if an endpoint is not a node of
        the network, its refusal (streamed as a ``rejected`` event)."""
        self._require_running()
        ride = self._coerce(request)
        if self.network.has_node(ride.origin) and self.network.has_node(ride.destination):
            return ride, None
        admission = self._queue.refuse(RejectionReason.UNKNOWN_NODE)
        self._emit(AssignmentEvent(
            event=AssignmentEventKind.REJECTED,
            time=ride.release_time,
            request_id=ride.request_id,
            reason=RejectionReason.UNKNOWN_NODE,
        ))
        return ride, admission

    def _emit_admission(self, ride: RideRequest, admission: Admission) -> None:
        if admission.shed is not None:
            self._emit(AssignmentEvent(
                event=AssignmentEventKind.REJECTED,
                time=max(self._sim_time, admission.shed.release_time),
                request_id=admission.shed.request_id,
                reason=RejectionReason.SHED_OLDEST,
            ))
        if not admission.accepted and admission.reason is not None:
            self._emit(AssignmentEvent(
                event=AssignmentEventKind.REJECTED,
                time=ride.release_time,
                request_id=ride.request_id,
                reason=admission.reason,
            ))

    # ------------------------------------------------------------------ #
    # the batch tick
    # ------------------------------------------------------------------ #
    def tick(self) -> BatchRecord | None:
        """Process the next batch window on the virtual clock.

        A no-op while the queue is empty.  Otherwise the window
        ``[next_start, next_start + Delta)`` is built exactly like
        :class:`~repro.model.batch.BatchStream` builds it (the first window
        is aligned to ``floor(first_release / Delta) * Delta``), its due
        requests are materialised against the service oracle and fed
        through ``Simulator.process_batch`` -- empty windows between
        occupied ones are processed too, so pending-pool retries and
        scenario steps happen exactly as in batch mode.  Returns the batch
        record, or ``None`` when no dispatch ran.
        """
        self._require_running()
        if self._queue.depth == 0:
            return None
        period = self.config.batch_period
        if self._next_start is None:
            first = self._queue.peek_next_release()
            assert first is not None  # depth > 0
            self._next_start = math.floor(first / period) * period
        start = self._next_start
        end = start + period
        index = self._batches
        requests: list[Request] = []
        for ride in self._queue.take_due(end):
            converted = self._materialise(ride, index, end)
            if converted is not None:
                requests.append(converted)
        batch = Batch(
            index=index, start_time=start, end_time=end,
            requests=tuple(requests),
        )
        self._streaming_batch = index
        record = self._sim.process_batch(batch)
        self._next_start = end
        self._batches += 1
        self._sim_time = end
        return record

    def _materialise(
        self, ride: RideRequest, index: int, end: float
    ) -> Request | None:
        try:
            request = ride.to_request(oracle=self.oracle, config=self.config)
        except UnreachableError:
            # Admitted but unroutable (no client-supplied direct cost and
            # the oracle found no path): reject at materialisation time.
            reason = RejectionReason.UNREACHABLE
        else:
            if not request.is_expired(request.release_time):
                return request
            reason = RejectionReason.EMPTY_WINDOW
        self._queue.counters.reject(reason)
        self._emit(AssignmentEvent(
            event=AssignmentEventKind.REJECTED,
            time=end,
            request_id=ride.request_id,
            batch_index=index,
            reason=reason,
        ))
        return None

    def serve(
        self, requests: Iterable[RideRequest | Request]
    ) -> ServiceResult:
        """Run one whole trace through the service and shut down.

        The convenience entry point mirroring ``Simulator.run``: start,
        submit the trace in release order (ticking the clock forward when
        the queue fills up), drain, shut down.  With a queue sized for the
        trace's bursts the resulting batch sequence -- and therefore every
        assignment -- is identical to batch mode's.
        """
        if not self._started:
            self.start()
        ordered = sorted(
            (self._coerce(request) for request in requests),
            key=lambda ride: (ride.release_time, ride.request_id),
        )
        for ride in ordered:
            admission = self.submit(ride)
            while (
                not admission.accepted
                and admission.reason is RejectionReason.QUEUE_FULL
            ):
                self.tick()
                admission = self.submit(ride)
        return self.shutdown()

    # ------------------------------------------------------------------ #
    # event streaming
    # ------------------------------------------------------------------ #
    def subscribe(
        self, callback: Callable[[AssignmentEvent], None]
    ) -> Callable[[], None]:
        """Stream every assignment event to ``callback``; returns unsubscribe."""

        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    def events(self) -> list[AssignmentEvent]:
        """Snapshot of the retained assignment-event history."""
        return list(self._history)

    def _on_engine_event(self, entry: Event) -> None:
        """Engine-sink listener: stream the request-lifecycle kinds."""
        mapped = _EVENT_MAP.get(entry.kind)
        if mapped is None:
            return
        kind, reason, other_is_vehicle = mapped
        self._emit(AssignmentEvent(
            event=kind,
            time=entry.time,
            request_id=entry.subject,
            vehicle_id=entry.other if other_is_vehicle else None,
            batch_index=self._streaming_batch,
            reason=reason,
        ))

    def _emit(self, event: AssignmentEvent) -> None:
        if len(self._history) == self._history.maxlen:
            self._events_dropped += 1
        self._history.append(event)
        for callback in self._subscribers:
            callback(event)

    # ------------------------------------------------------------------ #
    # health / stats endpoints
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Point-in-time service snapshot (works in every lifecycle phase).

        While the run is live the engine's store is collected first, so the
        snapshot is current.  ``rejected`` merges admission-time refusals
        (queue full, shed, duplicate, unknown node, shutdown) with
        materialisation-time ``unreachable`` and ``empty_window`` rejections,
        which also count in ``accepted`` (the request did enter the queue).
        """
        counters = self._queue.counters
        if self._started and not self._stopped:
            self._sim.collect()
        metrics = self._metrics
        service_rate = (
            metrics.assigned_requests / counters.accepted if counters.accepted else 1.0
        )
        return ServiceStats(
            received=counters.received,
            accepted=counters.accepted,
            rejected=dict(counters.rejected),
            assigned=metrics.assigned_requests,
            completed=metrics.completed_requests,
            expired=metrics.expired_requests,
            dispatch_rejected=metrics.rejected_requests,
            batches=self._batches,
            queue_depth=self._queue.depth,
            queue_high_watermark=counters.high_watermark,
            events_dropped=self._events_dropped,
            sim_time=self._sim_time,
            service_rate=min(service_rate, 1.0),
        )

    def health(self) -> dict[str, object]:
        """Liveness/readiness snapshot for operators and the benchmark.

        ``status`` is ``stopped`` outside the running window, ``draining``
        once shutdown closed the queue, ``degraded`` while the oracle
        serves stale/fallback answers or a resilience breaker is not
        closed, and ``ok`` otherwise.
        """
        degraded = self.oracle.serving_fallback or self.oracle.is_stale
        breakers: dict[str, str] = {}
        resilience = self._sim.resilience
        if resilience is not None:
            breakers = {
                "oracle": resilience.oracle_breaker.state.value,
                "dispatch": resilience.dispatch_breaker.state.value,
            }
            degraded = degraded or any(
                state != BreakerState.CLOSED.value
                for state in breakers.values()
            )
        if not self._started or self._stopped:
            status = "stopped"
        elif self._queue.closed:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        stats = self.stats()
        payload: dict[str, object] = {
            "status": status,
            "started": self._started,
            "stopped": self._stopped,
            "backend": self.oracle.backend_name,
            "oracle_stale": self.oracle.is_stale,
            "oracle_fallback": self.oracle.serving_fallback,
            "queue_depth": self._queue.depth,
            "queue_capacity": self._queue.capacity,
            "queue_closed": self._queue.closed,
            "pending": (
                len(self._sim.run_state.pending)
                if self._started and not self._stopped
                else 0
            ),
            "batches": self._batches,
            "sim_time": self._sim_time,
            "service_rate": stats.service_rate,
            "slo_service_rate": SLO_SERVICE_RATE,
            "slo_met": stats.service_rate >= SLO_SERVICE_RATE,
        }
        if breakers:
            payload["breakers"] = breakers
        return payload

    def metric_rows(self) -> list[tuple[MetricSpec, float]]:
        """The live exported rows: simulation metrics + service gauges.

        :data:`METRICS` over the store :meth:`stats` just collected (so
        ``prometheus_text`` renders a live service exactly as it renders a
        finished run), then that same :class:`ServiceStats` snapshot through
        :data:`SERVICE_METRICS`.
        """
        stats = self.stats()
        return export_rows(METRICS, self._metrics) + export_rows(SERVICE_METRICS, stats)


__all__ = ["DispatchService", "ServiceResult"]
