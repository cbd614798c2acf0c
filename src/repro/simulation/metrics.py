"""Metric collection: unified cost, service rate, running time and counters.

The unified cost (Equation 3 of the paper) is::

    U(W, P) = alpha * sum_{w in W} travel_cost(w)  +  sum_{unserved r} p_r

with ``p_r = pr * cost(r.source, r.destination)``, i.e. the penalty of an
unserved request is proportional to its direct travel time, and ``alpha``
fixed to 1 as in the paper (``SimulationConfig.alpha``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..observability.export import percentile


@dataclass
class BatchRecord:
    """Per-batch accounting used for debugging and fine-grained reporting."""

    index: int
    start_time: float
    end_time: float
    released: int
    assigned: int
    pending_after: int
    dispatch_seconds: float
    #: True when the resilience layer ran this batch on the degraded
    #: dispatcher (its dispatch breaker was open).
    degraded: bool = False


@dataclass(frozen=True)
class MetricSpec:
    """One row of a metrics table: a store field and everything said about it.

    A table of these rows drives the collect step, ``summary()`` and the
    exports, so adding a metric is one row plus one field on the store
    (:class:`MetricsCollector`, or the service's ``ServiceStats``).
    """

    field: str
    help: str
    #: Dotted exported name; ``None`` keeps the field out of the exports.
    name: str | None = None
    kind: str = "counter"
    #: ``"<subsystem>.<attribute path>"`` the collect step copies the value
    #: from; ``None`` for a field the store's owner writes itself.
    source: str | None = None


def export_rows(table: Iterable[MetricSpec], store: object) -> list[tuple[MetricSpec, float]]:
    """Every named row of ``table`` with its value in ``store``.

    A per-key counter (a ``dict`` field) is exported as its total.
    """
    rows = []
    for row in table:
        if row.name is None:
            continue
        value = getattr(store, row.field)
        rows.append((row, sum(value.values()) if isinstance(value, dict) else value))
    return rows


_M = MetricSpec
#: Every number a run reports, in ``summary()`` order.  Sources name the
#: subsystem that owns the counter: the oracle's ``QueryStatistics``
#: (backend-dependent work next to the logical query count), the refresh
#: policy's ``RefreshStats`` (scenario runs), the ``ResilienceManager``
#: (chaos runs) and the fleet; rows without one are written by the engine.
METRICS: tuple[MetricSpec, ...] = (
    _M("total_requests", "Requests released", "requests.total"),
    _M("assigned_requests", "Requests assigned", "requests.assigned"),
    _M("completed_requests", "Requests completed", "requests.completed", source="fleet.completed"),
    _M("expired_requests", "Requests expired unserved", "requests.expired"),
    _M("rejected_requests", "Requests rejected by the dispatcher", "requests.rejected"),
    _M("service_rate", "Fraction of requests assigned", "sim.service_rate", "gauge"),
    _M("total_travel_time", "Fleet travel time", source="fleet.total_travel_time"),
    _M("penalty", "Penalty of the unserved requests"),
    _M("unified_cost", "Unified cost (Equation 3)", "sim.unified_cost", "gauge"),
    _M("dispatch_seconds", "Wall clock inside the dispatcher"),
    _M("wall_clock_seconds", "End-to-end run wall clock", "sim.wall_clock_seconds", "gauge"),
    _M("shortest_path_queries", "Logical shortest-path queries", "oracle.queries",
       source="oracle.queries"),
    _M("oracle_searches", "Backend searches executed", "oracle.searches",
       source="oracle.searches"),
    _M("oracle_settled_nodes", "Nodes settled / label entries scanned", "oracle.settled_nodes",
       source="oracle.settled_nodes"),
    _M("cancelled_requests", "Requests cancelled", "requests.cancelled"),
    _M("scenario_events", "World events applied", "scenario.events"),
    _M("oracle_rebuilds", "Full oracle rebuilds", "oracle.rebuilds", source="refresh.rebuilds"),
    _M("oracle_rebuild_seconds", "Wall clock of the full rebuilds",
       source="refresh.rebuild_seconds"),
    _M("oracle_fallback_queries", "Queries served by the Dijkstra fallback",
       "oracle.fallback_queries", source="oracle.fallback_queries"),
    _M("oracle_stale_seconds", "Wall clock served from dirty structures",
       source="refresh.stale_seconds"),
    _M("oracle_repairs", "Bursts absorbed by a snapshot swap", "oracle.repairs",
       source="refresh.repairs"),
    _M("oracle_repair_seconds", "Wall clock of the snapshot swaps",
       source="refresh.repair_seconds"),
    _M("faults_injected", "Faults injected", "resilience.faults_injected",
       source="resilience.faults_injected"),
    _M("oracle_retries", "Refresh retries performed", source="resilience.stats.retries"),
    _M("breaker_trips", "Circuit-breaker trips", "resilience.breaker_trips",
       source="resilience.breaker_trips"),
    _M("degraded_batches", "Batches run on the degraded dispatcher",
       "resilience.degraded_batches", source="resilience.stats.degraded_batches"),
    _M("batch_overruns", "Batches that overran their time budget",
       source="resilience.stats.batch_overruns"),
    _M("probe_failures", "Invariant-probe mismatches", source="resilience.stats.probe_failures"),
    _M("self_heals", "Rebuilds triggered by a failed probe", source="resilience.stats.self_heals"),
    _M("recovery_seconds", "Wall clock inside failure handling",
       source="resilience.stats.recovery_seconds"),
    _M("peak_memory_bytes", "Peak estimated working set", "sim.peak_memory_bytes", "gauge"),
    _M("num_batches", "Dispatch batches run", "sim.batches"),
)


@dataclass
class MetricsCollector:
    """The run's one metrics store; :data:`METRICS` says what each field means."""

    total_requests: int = 0
    assigned_requests: int = 0
    completed_requests: int = 0
    expired_requests: int = 0
    rejected_requests: int = 0
    total_travel_time: float = 0.0
    penalty: float = 0.0
    dispatch_seconds: float = 0.0
    wall_clock_seconds: float = 0.0
    shortest_path_queries: int = 0
    oracle_searches: int = 0
    oracle_settled_nodes: int = 0
    cancelled_requests: int = 0
    scenario_events: int = 0
    oracle_rebuilds: int = 0
    oracle_rebuild_seconds: float = 0.0
    oracle_fallback_queries: int = 0
    oracle_stale_seconds: float = 0.0
    oracle_repairs: int = 0
    oracle_repair_seconds: float = 0.0
    faults_injected: int = 0
    oracle_retries: int = 0
    breaker_trips: int = 0
    degraded_batches: int = 0
    batch_overruns: int = 0
    probe_failures: int = 0
    self_heals: int = 0
    recovery_seconds: float = 0.0
    peak_memory_bytes: int = 0
    num_batches: int = 0
    batch_records: list[BatchRecord] = field(default_factory=list)

    @property
    def service_rate(self) -> float:
        """Fraction of requests assigned to a vehicle (the paper's metric)."""
        if self.total_requests == 0:
            return 0.0
        return self.assigned_requests / self.total_requests

    @property
    def unified_cost(self) -> float:
        """Unified cost computed from the accumulated travel time and penalty."""
        return self.total_travel_time + self.penalty

    def record_batch(self, record: BatchRecord) -> None:
        """Register per-batch accounting."""
        self.batch_records.append(record)
        self.num_batches += 1
        self.dispatch_seconds += record.dispatch_seconds

    def observe_memory(self, estimate_bytes: int) -> None:
        """Track the peak estimated working-set size."""
        self.peak_memory_bytes = max(self.peak_memory_bytes, estimate_bytes)

    def dispatch_latency(self) -> dict[str, float]:
        """Per-batch dispatch-latency distribution (p50 / p95 / max seconds).

        Computed from the raw :class:`BatchRecord` samples so the tails are
        exact, not bucketed -- a single slow batch (an oracle rebuild landing
        inside the dispatch window, a degraded-mode fallback) shows up in
        ``max`` even when the medians look healthy.
        """
        samples = sorted(record.dispatch_seconds for record in self.batch_records)
        return {
            "dispatch_p50_seconds": percentile(samples, 50.0),
            "dispatch_p95_seconds": percentile(samples, 95.0),
            "dispatch_max_seconds": samples[-1] if samples else 0.0,
        }

    def collect(self, **subsystems: object) -> None:
        """Refresh every sourced field from the subsystem that owns its counter.

        ``subsystems`` maps the first segment of the rows' ``source`` paths
        to live objects; an absent (or ``None``) subsystem leaves its fields
        at their defaults.  The values are copied, so a finished run's store
        does not follow a later ``oracle.stats.reset()``.
        """
        for row in METRICS:
            if row.source is None:
                continue
            root, *path = row.source.split(".")
            value = subsystems.get(root)
            if value is None:
                continue
            for attribute in path:
                value = getattr(value, attribute)
            setattr(self, row.field, value)

    def summary(self) -> dict[str, float]:
        """Flat dictionary used by the reporting layer: every table row under
        its field name, plus the dispatch-latency percentiles."""
        summary = {row.field: float(getattr(self, row.field)) for row in METRICS}
        return {**summary, **self.dispatch_latency()}

