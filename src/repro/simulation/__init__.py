"""Batched dynamic ridesharing simulator.

The simulator drives one "day" of operations: it slices the request trace
into batches, advances vehicles along their schedules between batches, calls
the dispatcher once per batch, applies the returned assignments and collects
the paper's three headline metrics (unified cost, service rate, running
time) plus the ablation counters (shortest-path queries, memory estimate).
"""

from .engine import RunState, SimulationResult, Simulator
from .events import Event, EventKind, EventLog
from .metrics import MetricsCollector

__all__ = [
    "Simulator",
    "SimulationResult",
    "RunState",
    "Event",
    "EventKind",
    "EventLog",
    "MetricsCollector",
]
