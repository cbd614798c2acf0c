"""Lightweight event log for simulation runs.

Events are informational: they let tests and examples inspect *why* a run
produced its metrics (which requests expired, when vehicles picked riders
up) without the simulator having to expose its internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar
from collections.abc import Iterator

# Re-exported: callers (the ledger among them) import both from here.
from ..events import Event, EventKind


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
