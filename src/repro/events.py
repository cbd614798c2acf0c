"""The event vocabulary of a run: what happened, when, and to whom.

:class:`EventKind` and :class:`Event` live here, importing nothing else
from the package, so the engine (:mod:`repro.simulation`), the world events
(:mod:`repro.scenarios.events`) and the resilience layer
(:mod:`repro.resilience.degrade`) all record the same members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    """The kinds of events recorded during a simulation."""

    REQUEST_RELEASED = "request_released"
    REQUEST_ASSIGNED = "request_assigned"
    REQUEST_COMPLETED = "request_completed"
    REQUEST_EXPIRED = "request_expired"
    REQUEST_REJECTED = "request_rejected"
    BATCH_DISPATCHED = "batch_dispatched"
    # Dynamic-world scenario events (:mod:`repro.scenarios.events`).
    REQUEST_CANCELLED = "request_cancelled"
    EDGES_RESCALED = "edges_rescaled"
    ROAD_CLOSED = "road_closed"
    ROAD_REOPENED = "road_reopened"
    VEHICLE_SHIFT_STARTED = "vehicle_shift_started"
    VEHICLE_SHIFT_ENDED = "vehicle_shift_ended"
    ORACLE_REBUILT = "oracle_rebuilt"
    ORACLE_REPAIRED = "oracle_repaired"
    # Resilience-layer events (the
    # :class:`repro.resilience.degrade.ResilienceManager`'s; ``subject`` is
    # the breaker index for breaker events -- 0 oracle, 1 dispatch -- the
    # retry attempt for ORACLE_RETRY and the failing-pair count for
    # PROBE_FAILED / ORACLE_SELF_HEALED).
    ORACLE_RETRY = "oracle_retry"
    BREAKER_OPENED = "breaker_opened"
    BREAKER_CLOSED = "breaker_closed"
    DISPATCH_DEGRADED = "dispatch_degraded"
    PROBE_FAILED = "probe_failed"
    ORACLE_SELF_HEALED = "oracle_self_healed"


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event."""

    time: float
    kind: EventKind
    #: Request id, vehicle id or batch index depending on the kind.
    subject: int
    #: Secondary identifier (e.g. the vehicle serving an assigned request).
    other: int | None = None
