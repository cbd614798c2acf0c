"""Typed metric registry: Counter / Gauge / Histogram behind one namespace.

The registry is the export shape of a run's numbers: metrics live under a
dotted name (``requests.assigned``, ``dispatch.batch_seconds``) and
exporters iterate the registry, so they never know a field list.  The run's
store (:class:`repro.simulation.MetricsCollector`) and the service fill one
from their metrics tables on demand; nothing reads a registry back to make
a decision.  Three metric types, mirroring the Prometheus data model:

* :class:`Counter` -- monotonically non-decreasing count.
* :class:`Gauge` -- a value that can go up and down (peak tracking built in).
* :class:`Histogram` -- observations bucketed against fixed finite bounds,
  with count / sum / per-bucket cumulative counts and interpolated
  percentile estimates.

Registration is idempotent get-or-create: two callers asking for the same
name receive the same instance, and asking for an existing name with a
different type (or different histogram buckets) raises -- silently
returning a mismatched metric would corrupt both callers' data.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Sequence
from typing import Union

#: Default histogram bounds for pipeline latencies, in seconds.  Spread
#: log-ish from 50us to 30s so both a single oracle query and a full
#: rebuild land in an interior bucket.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.00005,
    0.0002,
    0.001,
    0.005,
    0.02,
    0.1,
    0.5,
    2.0,
    10.0,
    30.0,
)


class MetricError(ValueError):
    """Conflicting registration or invalid metric operation."""


class Counter:
    """Monotonically non-decreasing counter."""

    __slots__ = ("description", "name", "value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Point-in-time value; remembers the peak it has reached."""

    __slots__ = ("description", "name", "peak", "value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Observations against fixed finite bucket bounds.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; one implicit overflow bucket catches
    everything above the last bound (the Prometheus ``+Inf`` bucket).
    """

    __slots__ = ("bounds", "counts", "description", "name", "total", "total_sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name!r} needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(f"histogram {name!r} buckets must strictly increase: {bounds}")
        self.name = name
        self.description = description
        self.bounds = bounds
        # counts[i] observations fell in bucket i; counts[-1] is overflow.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.total_sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.total_sum += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total_sum / self.total if self.total else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(upper_bound, cumulative_count)`` pairs.

        The final pair uses ``float("inf")`` as its bound and always equals
        :attr:`total`.
        """
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.total))
        return pairs

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0 <= q <= 100) from the buckets.

        Linear interpolation within the winning bucket, Prometheus
        ``histogram_quantile`` style; observations in the overflow bucket
        are attributed to the last finite bound.  Exact values are not
        recoverable from a histogram -- use this for reporting, not logic.
        """
        if not 0 <= q <= 100:
            raise MetricError(f"percentile out of range: {q}")
        if self.total == 0:
            return 0.0
        rank = q / 100.0 * self.total
        running = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if running + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (rank - running) / count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            running += count
        return self.bounds[-1]


Metric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """Namespace of typed metrics with idempotent get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration --------------------------------------------------- #
    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise MetricError(f"{name!r} already registered as a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise MetricError(f"{name!r} already registered as a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self,
        name: str,
        description: str = "",
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        """Get or create the histogram ``name`` (bucket bounds must match)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, description, buckets=buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise MetricError(f"{name!r} already registered as a {metric.kind}, not a histogram")
        elif metric.bounds != tuple(float(b) for b in buckets):
            raise MetricError(
                f"histogram {name!r} re-registered with different buckets: "
                f"{metric.bounds} vs {tuple(buckets)}"
            )
        return metric

    # -- inspection ----------------------------------------------------- #
    def get(self, name: str) -> Metric | None:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        """Metrics in sorted-name order (deterministic exports)."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def as_dict(self) -> dict[str, float]:
        """Flat ``{name: value}`` snapshot.

        Counters and gauges map to their value; histograms expand to
        ``name.count`` / ``name.sum`` (percentiles are reporting-layer
        concerns, see :mod:`repro.observability.export`).
        """
        snapshot: dict[str, float] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                snapshot[f"{metric.name}.count"] = float(metric.total)
                snapshot[f"{metric.name}.sum"] = metric.total_sum
            else:
                snapshot[metric.name] = metric.value
        return snapshot


__all__ = [
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricRegistry",
]
