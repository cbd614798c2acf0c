"""Wiring helpers: attach a tracer to a run and its oracle in one place.

The instrumentation sites themselves live inside the subsystems (engine,
dispatchers, shareability builder, refresh policies, resilience manager)
and fire against the process-wide active tracer from
:mod:`repro.observability.trace`.  This module is the front door callers
actually use:

>>> from repro.observability import tracing
>>> with tracing(oracle=simulator.oracle) as tracer:
...     result = simulator.run()
>>> len(tracer.records)  # doctest: +SKIP

:func:`tracing` installs a fresh :class:`SpanTracer` for the block,
switches the oracle's query tracing on, and restores both on exit
-- so a traced run and an untraced run differ by exactly one ``with``
line.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .trace import SpanTracer, use_tracer

if TYPE_CHECKING:
    from ..network.shortest_path import DistanceOracle


@contextmanager
def tracing(
    *,
    oracle: DistanceOracle | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Iterator[SpanTracer]:
    """Run a block with span tracing active; yields the collecting tracer.

    Installs a fresh :class:`SpanTracer` as the process-wide active tracer
    (every instrumented site in the simulator, dispatchers, refresh
    policies and resilience manager reports to it, keeping the newest
    :data:`~repro.observability.trace.DEFAULT_CAPACITY` records), and --
    when ``oracle`` is given -- traces every query it computes.  Both are
    restored / disabled on exit, so the tracer handed back is a finished,
    stable artifact ready for export.
    """
    tracer = SpanTracer(clock=clock)
    try:
        with use_tracer(tracer):
            if oracle is not None:
                oracle.set_query_tracing(tracer)
            yield tracer
    finally:
        if oracle is not None:
            oracle.set_query_tracing(None)


__all__ = ["tracing"]
