"""Bounded ingestion queue feeding the dispatch service's batch tick.

The queue is the admission boundary of :class:`repro.service.DispatchService`:
clients :meth:`~IngestionQueue.offer` typed :class:`RideRequest` payloads,
the service's virtual-clock tick :meth:`~IngestionQueue.take_due` drains
everything released up to the batch boundary, and overload is handled by an
explicit admission policy instead of unbounded buffering:

* ``reject`` -- a full queue refuses the new request
  (:attr:`RejectionReason.QUEUE_FULL`); async submitters using
  :meth:`~IngestionQueue.put` *block* until space frees (backpressure).
* ``drop_oldest`` -- a full queue sheds the longest-queued request
  (:attr:`RejectionReason.SHED_OLDEST`) so the freshest demand wins.

Everything is deterministic: requests drain in ``(release_time,
request_id)`` order regardless of submission interleaving, and the queue
never consults a wall clock -- time only enters through the
``release_time`` fields and the ``until`` horizon the service passes in.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field

from ..config import ADMISSION_POLICIES
from ..exceptions import ConfigurationError
from .schemas import RejectionReason, RideRequest


@dataclass(frozen=True)
class Admission:
    """Outcome of one admission decision (offer/put/close-time rejection)."""

    #: Whether the request entered the queue.
    accepted: bool
    #: Why it did not, for rejections (``None`` on acceptance).
    reason: RejectionReason | None = None
    #: Queue depth right after the decision.
    queue_depth: int = 0
    #: Request shed to make room (``drop_oldest`` policy only).
    shed: RideRequest | None = None


@dataclass
class _QueueCounters:
    """Admission bookkeeping surfaced through ``ServiceStats``."""

    received: int = 0
    accepted: int = 0
    #: Rejections keyed by :class:`RejectionReason` wire value.
    rejected: dict[str, int] = field(default_factory=dict)
    high_watermark: int = 0

    def reject(self, reason: RejectionReason) -> None:
        self.rejected[reason.value] = self.rejected.get(reason.value, 0) + 1


class IngestionQueue:
    """Bounded, deduplicating, release-time-ordered request queue."""

    def __init__(self, *, capacity: int = 512, policy: str = "reject") -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be at least 1 (got {capacity})"
            )
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission policy must be one of {ADMISSION_POLICIES} "
                f"(got {policy!r})"
            )
        self.capacity = capacity
        self.policy = policy
        self.counters = _QueueCounters()
        #: Min-heap of ``(release_time, request_id, request)`` -- drains in
        #: deterministic release order regardless of submission order.
        self._heap: list[tuple[float, int, RideRequest]] = []
        #: Every request id ever admitted (including already-consumed ones),
        #: so a retry of a served request is flagged as a duplicate instead
        #: of being dispatched twice.
        self._seen: set[int] = set()
        self._closed = False
        #: Lazily-created wakeup for async submitters blocked on a full
        #: queue; set whenever space frees or the queue closes.
        self._space: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def offer(self, request: RideRequest) -> Admission:
        """Try to admit ``request`` without blocking."""
        self.counters.received += 1
        if self._closed:
            return self._reject(RejectionReason.SHUTTING_DOWN)
        if request.request_id in self._seen:
            return self._reject(RejectionReason.DUPLICATE_REQUEST)
        shed: RideRequest | None = None
        if len(self._heap) >= self.capacity:
            if self.policy == "reject":
                return self._reject(RejectionReason.QUEUE_FULL)
            # drop_oldest: shed the longest-queued request (smallest
            # release time; ties by id) so the freshest demand is kept.
            _, _, shed = heapq.heappop(self._heap)
            self.counters.reject(RejectionReason.SHED_OLDEST)
        heapq.heappush(
            self._heap, (request.release_time, request.request_id, request)
        )
        self._seen.add(request.request_id)
        self.counters.accepted += 1
        self.counters.high_watermark = max(
            self.counters.high_watermark, len(self._heap)
        )
        return Admission(
            accepted=True, queue_depth=len(self._heap), shed=shed
        )

    async def put(self, request: RideRequest) -> Admission:
        """Admit ``request``, blocking while the queue is full.

        Under the ``reject`` policy a full queue makes this coroutine wait
        until :meth:`take_due` frees space (backpressure propagates to the
        submitter); terminal rejections (duplicate, shutdown) return
        immediately.  Under ``drop_oldest`` this never blocks.
        """
        while True:
            if (
                self._closed
                or request.request_id in self._seen
                or len(self._heap) < self.capacity
                or self.policy == "drop_oldest"
            ):
                return self.offer(request)
            if self._space is None:
                self._space = asyncio.Event()
            self._space.clear()
            await self._space.wait()

    def refuse(self, reason: RejectionReason) -> Admission:
        """Count an externally-decided rejection (service-side validation).

        The service validates payload semantics it alone can judge (node
        membership in its road network) *before* offering to the queue;
        routing those refusals through here keeps them inside the same
        admission counters as queue-decided ones.
        """
        self.counters.received += 1
        return self._reject(reason)

    def _reject(self, reason: RejectionReason) -> Admission:
        self.counters.reject(reason)
        return Admission(
            accepted=False, reason=reason, queue_depth=len(self._heap)
        )

    # ------------------------------------------------------------------ #
    # consumption (the service's batch tick)
    # ------------------------------------------------------------------ #
    def take_due(self, until: float) -> list[RideRequest]:
        """Remove and return every request released strictly before ``until``.

        The bound is exclusive because ``until`` is a batch *end* boundary
        and batch windows are half-open ``[start, end)`` -- a request
        released exactly at the boundary belongs to the next batch.  Results
        are ordered by ``(release_time, request_id)``, the order
        :class:`repro.model.batch.BatchStream` presents a pre-sorted trace
        in, which is what makes service-mode batches identical to
        batch-mode ones.
        """
        due: list[RideRequest] = []
        while self._heap and self._heap[0][0] < until:
            due.append(heapq.heappop(self._heap)[2])
        if due:
            self._wake_waiters()
        return due

    def peek_next_release(self) -> float | None:
        """Release time of the earliest queued request, or ``None``."""
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop admitting; queued requests remain drainable via take_due."""
        self._closed = True
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        if self._space is not None:
            self._space.set()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    @property
    def depth(self) -> int:
        """Number of requests currently queued."""
        return len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        # A queue is truthy like any object; depth checks must be explicit
        # (``if queue`` reading as ``if queue.depth`` has bitten before).
        return True


__all__ = ["Admission", "IngestionQueue"]
