"""Resilience layer: fault injection, retry/backoff and graceful degradation.

The dynamic-world refresh paths (CH rebuild, snapshot swap, Dijkstra
fallback) all assume they succeed.  This package makes the
oracle/dispatch pipeline survive when they do not:

* :mod:`~repro.resilience.faults` -- a seeded :class:`FaultInjector` driven
  by :class:`~repro.config.ChaosConfig` plus :class:`ChaosOracle`, a
  :class:`~repro.network.shortest_path.DistanceOracle` whose rebuild/repair/
  query seams inject rebuild exceptions, repair failures, silent corruption
  and query latency spikes -- deterministically, from per-operation RNG
  streams.
* :mod:`~repro.resilience.retry` -- retry with exponential backoff + jitter
  and a deadline budget, raising typed
  :class:`~repro.exceptions.OracleBuildError` /
  :class:`~repro.exceptions.OracleRepairError` when exhausted.
* :mod:`~repro.resilience.degrade` -- per-oracle and per-dispatcher circuit
  breakers and the degradation ladder orchestrated by
  :class:`ResilienceManager`: failed repairs trip to eager rebuild, failed
  rebuilds trip to the exact fresh-CSR Dijkstra fallback, and batches that
  overrun their time budget degrade the dispatcher until a recovery probe
  closes the breaker.
* :mod:`~repro.resilience.probes` -- the one serving-oracle-vs-fresh-Dijkstra
  cost check, run by sampled invariant probes (silent corruption triggers
  self-healing rebuilds) and by the verification of accepted assignments.

The invariant the ladder enforces: under any injected fault sequence the
simulation completes, every accepted assignment's costs are exact at
dispatch time, and the recovery latency is reported in the metrics.
"""

from __future__ import annotations

from .degrade import BreakerState, CircuitBreaker, ResilienceManager, ResilienceStats
from .faults import ChaosOracle, FaultInjector
from .probes import InvariantProbe, ProbeFailure
from .retry import RetryPolicy

__all__ = [
    "BreakerState",
    "ChaosOracle",
    "CircuitBreaker",
    "FaultInjector",
    "InvariantProbe",
    "ProbeFailure",
    "ResilienceManager",
    "ResilienceStats",
    "RetryPolicy",
]
