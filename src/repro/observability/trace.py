"""Span tracing for the dispatch pipeline.

A *span* is one timed region of the pipeline -- a dispatch batch, the
shareability-graph update inside it, one computed oracle query.  Spans nest:
entering a span pushes it on the tracer's stack, so each finished record
carries its parent's id and its nesting depth, and an exporter can rebuild
the tree.  Two clocks are recorded per span:

* **wall time** via ``time.perf_counter()`` (the DET001-sanctioned duration
  clock; it never feeds simulation logic, only reporting), and
* **virtual sim-time** -- the batch clock the simulator advances.  The
  engine calls :meth:`SpanTracer.set_sim_time` at every batch boundary, so
  spans opened deeper in the pipeline inherit the simulated timestamp
  without every layer having to thread ``now`` through its API.

Finished spans land in a bounded ring buffer (oldest evicted first, the
eviction count is kept), so tracing a long service-style run cannot grow
memory without bound.

Instrumented code never checks "is tracing on": it asks :func:`get_tracer`
for the active tracer and opens spans unconditionally.  When tracing is
disabled the active tracer is the :data:`NULL_TRACER` singleton whose
``span()`` returns one preallocated no-op span -- no allocation, no
branching in the instrumented code, overhead of a method call per *span*
(not per query; the oracle hot path additionally gates its tracing on one
``is not None`` test, see ``DistanceOracle.set_query_tracing``).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from types import TracebackType

#: Values a span tag may carry (kept JSON-serialisable by construction).
TagValue = int | float | str | bool

#: Default ring-buffer capacity (finished spans kept per tracer).
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    #: Virtual simulation time the span was opened at (``None`` when no
    #: sim-time was ever set, e.g. outside a simulation run).
    sim_time: float | None
    #: Wall-clock start, in seconds relative to the tracer's epoch (the
    #: clock value when the tracer was created).
    start: float
    #: Wall-clock duration in seconds.
    duration: float
    tags: dict[str, TagValue] = field(default_factory=dict)


class NoopSpan:
    """The do-nothing span: one shared instance serves every disabled site."""

    __slots__ = ()

    def __enter__(self) -> NoopSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def tag(self, key: str, value: TagValue) -> None:
        """Discard the tag."""


#: The preallocated no-op span returned by the null tracer.
NOOP_SPAN = NoopSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared singletons."""

    __slots__ = ()

    enabled = False
    evicted = 0

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Always empty."""
        return ()

    def span(self, name: str, *, sim_time: float | None = None, **tags: TagValue) -> NoopSpan:
        """Return the shared no-op span (no allocation)."""
        return NOOP_SPAN

    def event(
        self, name: str, *, duration: float = 0.0, sim_time: float | None = None, **tags: TagValue
    ) -> None:
        """Discard the event."""

    def set_sim_time(self, now: float) -> None:
        """Discard the sim-time update."""

    def clear(self) -> None:
        """Nothing to clear."""


#: The process-wide disabled tracer (also the default active tracer).
NULL_TRACER = NullTracer()


class _Span:
    """A live (entered, not yet exited) span of a :class:`SpanTracer`."""

    __slots__ = ("_start", "_tracer", "depth", "name", "parent_id", "sim_time", "span_id", "tags")

    def __init__(
        self,
        tracer: SpanTracer,
        name: str,
        sim_time: float | None,
        tags: dict[str, TagValue],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.sim_time = sim_time
        self.tags = tags
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0
        self._start = 0.0

    def tag(self, key: str, value: TagValue) -> None:
        """Attach (or overwrite) one typed tag on the live span."""
        self.tags[key] = value

    def __enter__(self) -> _Span:
        tracer = self._tracer
        stack = tracer._stack
        self.span_id = tracer._allocate_id()
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        stack.append(self)
        self._start = tracer._clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        tracer = self._tracer
        end = tracer._clock()
        stack = tracer._stack
        # Exiting out of order (an exception unwinding through several
        # spans) closes every span opened after this one as well.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        tracer._finish(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                depth=self.depth,
                sim_time=self.sim_time,
                start=self._start - tracer._epoch,
                duration=end - self._start,
                tags=self.tags,
            )
        )


class SpanTracer:
    """Collecting tracer: nested spans into a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Maximum number of finished spans kept; the oldest are evicted once
        the buffer is full (:attr:`evicted` counts them).
    clock:
        Monotonic duration clock.  Defaults to :func:`time.perf_counter`;
        tests inject a deterministic fake so exported traces are stable.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = capacity
        self._clock = clock
        self._epoch = clock()
        self._buffer: deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: list[_Span] = []
        self._next_id = 1
        self.evicted = 0
        self._sim_time: float | None = None

    # -- recording ------------------------------------------------------ #
    def span(self, name: str, *, sim_time: float | None = None, **tags: TagValue) -> _Span:
        """Open a span; use as ``with tracer.span("dispatch.batch"): ...``.

        ``sim_time`` defaults to the tracer's current virtual time (see
        :meth:`set_sim_time`).
        """
        return _Span(self, name, self._sim_time if sim_time is None else sim_time, tags)

    def event(
        self, name: str, *, duration: float = 0.0, sim_time: float | None = None, **tags: TagValue
    ) -> None:
        """Record a leaf span without the context-manager ceremony.

        Used where the duration was measured by the caller already (oracle
        rebuild/repair seconds) or where only the occurrence matters
        (breaker transitions); the event is parented to the innermost open
        span.
        """
        stack = self._stack
        now = self._clock()
        self._finish(
            SpanRecord(
                span_id=self._allocate_id(),
                parent_id=stack[-1].span_id if stack else None,
                name=name,
                depth=len(stack),
                sim_time=self._sim_time if sim_time is None else sim_time,
                start=now - duration - self._epoch,
                duration=duration,
                tags=tags,
            )
        )

    def set_sim_time(self, now: float) -> None:
        """Set the virtual timestamp inherited by subsequently opened spans."""
        self._sim_time = now

    # -- inspection ----------------------------------------------------- #
    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Finished spans in completion order (children before parents)."""
        return tuple(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._buffer)

    def clear(self) -> None:
        """Drop every finished span and reset the eviction counter."""
        self._buffer.clear()
        self.evicted = 0

    # -- internals ------------------------------------------------------ #
    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _finish(self, record: SpanRecord) -> None:
        buffer = self._buffer
        if len(buffer) == self.capacity:
            self.evicted += 1
        buffer.append(record)


#: The process-wide active tracer consulted by instrumented code.
#: Deliberately process-local: executor workers must install their own
#: tracer (revisit when the zone-sharded multiprocessing PR lands).
_active: NullTracer | SpanTracer = NULL_TRACER

#: Union type of the two tracer implementations (instrumentation sites
#: accept either).
Tracer = NullTracer | SpanTracer


def get_tracer() -> Tracer:
    """The active tracer (the :data:`NULL_TRACER` when tracing is off)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one.

    ``None`` disables tracing (installs the null tracer).  Prefer the
    :func:`use_tracer` context manager, which restores the previous tracer
    on exit.
    """
    global _active
    previous = _active
    _active = NULL_TRACER if tracer is None else tracer
    return previous


class use_tracer:
    """Context manager installing a tracer for the duration of a block."""

    def __init__(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self._tracer)
        return _active

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        set_tracer(self._previous)


__all__ = [
    "DEFAULT_CAPACITY",
    "NOOP_SPAN",
    "NULL_TRACER",
    "NoopSpan",
    "NullTracer",
    "SpanRecord",
    "SpanTracer",
    "TagValue",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
