"""Closed-loop replay of a request trace through ``DispatchService``.

``DispatchService.serve`` submits the whole trace before the first tick,
which is not how requests arrive.  This driver feeds the trace on the
service's virtual clock instead: a request is submitted when the clock
reaches its release time, and the service ticks once per batch window the
clock has passed.  It is a closed loop with one client -- the next window is
offered only after the previous tick returned -- so a slow tick delays the
feed but never grows a backlog on the virtual clock.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro import AssignmentEventKind, DispatchService, ServiceResult

from metrics import percentile


@dataclass
class Replay:
    """One replay: what the service returned and how long it took."""

    result: ServiceResult
    #: Wall seconds from ``start()`` to ``shutdown()`` returning, minus the
    #: time spent inside the ``after_tick`` hook.
    wall_s: float
    #: Wall seconds of every ``tick()`` that processed a window.
    tick_s: list[float]


def replay(
    service: DispatchService,
    trace: list,
    *,
    after_tick: Callable[[], None] | None = None,
) -> Replay:
    """Feed ``trace`` (sorted by release time, id) through ``service``.

    Windows are aligned like the service aligns them: the first ends at
    ``floor(first_release / period) * period + period``.  ``tick()`` is a
    no-op on an empty queue and processes exactly one window otherwise, so
    the driver counts the windows that are due and ticks until the service
    has caught up; whatever is still queued after the last submission is
    ticked explicitly so that those ticks are timed like the others.
    ``after_tick`` runs after every tick (the checker's hook); its time is
    taken out of ``wall_s``.
    """
    period = service.config.batch_period
    clock = time.perf_counter
    queue = service.queue
    tick_s: list[float] = []
    hook_s = 0.0

    def tick() -> None:
        nonlocal hook_s
        start = clock()
        service.tick()
        end = clock()
        tick_s.append(end - start)
        if after_tick is not None:
            after_tick()
            hook_s += clock() - end

    begin = clock()
    service.start()
    boundary = (math.floor(trace[0].release_time / period) + 1) * period
    behind = 0
    for request in trace:
        while request.release_time >= boundary:
            boundary += period
            behind += 1
            while behind and queue.depth:
                tick()
                behind -= 1
        service.submit(request)
    while queue.depth:
        tick()
    result = service.shutdown()
    return Replay(result=result, wall_s=clock() - begin - hook_s, tick_s=tick_s)


def pairs_digest(pairs: list[tuple[int, int]]) -> str:
    """Digest of the sorted (request, vehicle) assignment pairs."""
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()[:16]


def assigned_pairs(result: ServiceResult) -> list[tuple[int, int]]:
    """(request, vehicle) of every ``assigned`` event the service streamed."""
    return [
        (event.request_id, event.vehicle_id)
        for event in result.events
        if event.event is AssignmentEventKind.ASSIGNED
    ]


def exact_metrics(trace: list, result: ServiceResult) -> dict[str, float | str]:
    """The metrics that must repeat exactly in every pass over one trace."""
    released = {request.request_id: request.release_time for request in trace}
    waits = [
        event.time - released[event.request_id]
        for event in result.events
        if event.event is AssignmentEventKind.ASSIGNED
    ]
    return {
        "service_rate": result.service_rate,
        "unified_cost": result.unified_cost,
        "assign_wait_sim_s_p95": percentile(waits, 95.0),
        "ticks": result.stats.batches,
        "ops_attempted": len(trace),
        "ops_unserved": len(trace) - result.stats.assigned,
        "mem.estimate_peak_mb": (
            result.simulation.metrics.peak_memory_bytes / 2**20
        ),
        "digest": pairs_digest(assigned_pairs(result)),
    }
