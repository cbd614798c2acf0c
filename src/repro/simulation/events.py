"""Lightweight event log for simulation runs.

Events are informational: they let tests and examples inspect *why* a run
produced its metrics (which requests expired, when vehicles picked riders
up) without the simulator having to expose its internals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar
from collections.abc import Iterator


class EventKind(enum.Enum):
    """The kinds of events recorded during a simulation."""

    REQUEST_RELEASED = "request_released"
    REQUEST_ASSIGNED = "request_assigned"
    REQUEST_COMPLETED = "request_completed"
    REQUEST_EXPIRED = "request_expired"
    REQUEST_REJECTED = "request_rejected"
    BATCH_DISPATCHED = "batch_dispatched"
    # Dynamic-world scenario events (values match the kind strings world
    # events emit; see :mod:`repro.scenarios.events`).
    REQUEST_CANCELLED = "request_cancelled"
    EDGES_RESCALED = "edges_rescaled"
    ROAD_CLOSED = "road_closed"
    ROAD_REOPENED = "road_reopened"
    VEHICLE_SHIFT_STARTED = "vehicle_shift_started"
    VEHICLE_SHIFT_ENDED = "vehicle_shift_ended"
    ORACLE_REBUILT = "oracle_rebuilt"
    ORACLE_REPAIRED = "oracle_repaired"
    # Resilience-layer events (values match the kind strings the
    # :class:`repro.resilience.degrade.ResilienceManager` emits; ``subject``
    # is the breaker index for breaker events -- 0 oracle, 1 dispatch --
    # the retry attempt for ORACLE_RETRY and the failing-pair count for
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


@dataclass
class EventLog:
    """Append-only list of events with small query helpers."""

    #: Hard cap to keep memory bounded on large runs.
    MAX_EVENTS: ClassVar[int] = 200_000

    events: list[Event] = field(default_factory=list)
    #: Events rejected because the cap was reached -- so a truncated log is
    #: detectable (a zero count for some kind may just mean it was dropped).
    dropped: int = 0

    def record(self, event: Event) -> None:
        """Append an event (counted in :attr:`dropped` once the cap is hit)."""
        if len(self.events) >= self.MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append(event)

    def of_kind(
        self,
        kind: EventKind,
        *,
        start: float | None = None,
        end: float | None = None,
    ) -> list[Event]:
        """All recorded events of one kind, optionally clipped to a window.

        ``start`` / ``end`` are inclusive bounds on the event time; either
        side may be omitted for a half-open window.
        """
        return [
            event
            for event in self.events
            if event.kind is kind
            and (start is None or event.time >= start)
            and (end is None or event.time <= end)
        ]

    def count(self, kind: EventKind) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for event in self.events if event.kind is kind)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
