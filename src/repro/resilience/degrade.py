"""Circuit breakers and the degradation ladder.

The :class:`ResilienceManager` orchestrates two breakers:

* **Oracle breaker** -- guards the refresh path.  Repeated repair failures
  trip to an immediate rebuild; a rebuild whose retry budget is exhausted
  counts a breaker failure and drops the oracle onto its exact fresh-CSR
  Dijkstra fallback (correctness is never traded away -- the fallback is
  exact, just slower).  While the breaker is open, refresh requests
  short-circuit to the fallback; after :attr:`CircuitBreaker.RECOVERY_INTERVAL`
  batches a half-open probe attempts one full rebuild and closes the breaker
  on success.
* **Dispatch breaker** -- guards the batch time budget.  A dispatch batch
  whose injected virtual latency overruns
  :attr:`ResilienceManager.BATCH_TIME_BUDGET` counts a failure (real
  wall-clock is never charged, so breaker decisions and the whole run repeat
  on any host);
  :attr:`CircuitBreaker.FAILURE_THRESHOLD` consecutive overruns trip the
  breaker and subsequent batches run a degraded dispatcher (greedy linear
  insertion, no clique enumeration) until a half-open probe batch finishes
  inside the budget again.

Sampled invariant probes (see :mod:`~repro.resilience.probes`) run before
every dispatch: a mismatch against fresh Dijkstra triggers the self-healing
rung (heal + rebuild, then the exact fallback as last resort), so dispatch
always prices insertions on a probe-verified oracle.  After every dispatch
each accepted assignment's legs are checked against fresh Dijkstra too.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any
from random import Random

from ..config import ChaosConfig
from ..dispatch.base import Assignment, Dispatcher
from ..dispatch.prunegdp import PruneGDPDispatcher
from ..events import EventKind
from ..exceptions import (
    OracleBuildError,
    OracleRepairError,
    ReproError,
    ResilienceError,
)
from ..model.vehicle import Vehicle
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle, RepairReport
from ..observability.trace import get_tracer
from .faults import ChaosOracle, FaultInjector
from .probes import InvariantProbe, exact_cost_failures
from .retry import RetryPolicy

#: ``subject`` values of breaker events: which breaker transitioned.
ORACLE_BREAKER = 0
DISPATCH_BREAKER = 1

#: Self-healing rebuild attempts before probing falls back to the exact
#: fresh-CSR Dijkstra rung.
MAX_HEAL_ATTEMPTS = 2


class BreakerState(enum.Enum):
    """Classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with batch-granular recovery probing.

    Time is measured in *batches*, not wall-clock: :meth:`tick` is called
    once per batch while open and moves the breaker to half-open after
    :attr:`RECOVERY_INTERVAL` ticks.  A success in half-open closes it; a
    failure re-opens it (counted as another trip).
    """

    #: Consecutive failures that trip the breaker open.
    FAILURE_THRESHOLD = 2
    #: Batches a tripped breaker stays open before a half-open recovery probe.
    RECOVERY_INTERVAL = 2

    def __init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._consecutive_failures = 0
        self._cooldown = 0

    def record_failure(self) -> bool:
        """Count one failure; returns True when this failure opens the breaker."""
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.FAILURE_THRESHOLD
        ):
            self.state = BreakerState.OPEN
            self._cooldown = self.RECOVERY_INTERVAL
            self.trips += 1
            return True
        return False

    def record_success(self) -> bool:
        """Count one success; returns True when it closed an open breaker."""
        self._consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            return True
        return False

    def tick(self) -> bool:
        """Advance one batch while open; True when now half-open (probe due)."""
        if self.state is not BreakerState.OPEN:
            return False
        self._cooldown -= 1
        if self._cooldown <= 0:
            self.state = BreakerState.HALF_OPEN
            return True
        return False


@dataclass
class ResilienceStats:
    """Counters the manager accumulates over one run."""

    retries: int = 0
    degraded_batches: int = 0
    batch_overruns: int = 0
    probe_failures: int = 0
    self_heals: int = 0
    #: Wall-clock seconds spent inside failure handling: retry backoff
    #: excluded (virtual), rebuild-after-failure, healing and recovery
    #: probes included -- the "recovery latency" the benchmarks report.
    recovery_seconds: float = 0.0


class ResilienceManager:
    """Threads fault injection, retries, breakers and probes through a run.

    The manager is engine-agnostic: it never imports the simulator.  The
    simulator attaches an event recorder via :meth:`begin_run` and calls the
    hook methods from its batch loop; the refresh policies route their
    rebuild/repair calls through :meth:`guarded_rebuild` /
    :meth:`guarded_repair` when a manager is attached to them.
    """

    #: Per-batch budget, in injected virtual seconds; overrunning it counts
    #: a dispatch-breaker failure and eventually degrades the dispatcher.
    BATCH_TIME_BUDGET = 0.05

    def __init__(self, *, chaos: ChaosConfig | None = None) -> None:
        self.injector = FaultInjector(chaos) if chaos is not None else None
        self.retry = RetryPolicy()
        #: The degraded rung of the dispatcher ladder: greedy linear
        #: insertion over few candidates, batch semantics (unassigned
        #: requests stay pending instead of being rejected outright).
        self.degraded_dispatcher = PruneGDPDispatcher(
            max_candidates=8, reject_unassigned=False
        )
        self.probe = InvariantProbe()
        self.begin_run()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def make_oracle(self, network: RoadNetwork, **kwargs: Any) -> DistanceOracle:
        """A chaos oracle when fault injection is configured, plain otherwise."""
        if self.injector is None:
            return DistanceOracle(network, **kwargs)
        return ChaosOracle(network, injector=self.injector, **kwargs)

    def begin_run(
        self,
        recorder: Callable[[float, EventKind, int, int | None], None] | None = None,
    ) -> None:
        """Reset all per-run state (the simulator calls this at run start)."""
        self.stats = ResilienceStats()
        if self.injector is not None:
            self.injector.reset()
        self.probe.reset()
        self.degraded_dispatcher.reset()
        self.oracle_breaker = CircuitBreaker()
        self.dispatch_breaker = CircuitBreaker()
        self._jitter_rng = Random(f"{InvariantProbe.SEED}:jitter")
        self._recorder: Callable[[float, EventKind, int, int | None], None] | None = recorder
        self._now = 0.0

    @property
    def faults_injected(self) -> int:
        """Total faults injected so far (0 without a fault injector)."""
        return self.injector.faults_injected if self.injector is not None else 0

    @property
    def breaker_trips(self) -> int:
        """Trips across both breakers (the metrics counter)."""
        return self.oracle_breaker.trips + self.dispatch_breaker.trips

    def _emit(self, kind: EventKind, subject: int, other: int | None = None) -> None:
        if self._recorder is not None:
            self._recorder(self._now, kind, subject, other)
        # Mirror every resilience event into the active trace: breaker
        # transitions, retries, probe failures and heals become leaf spans
        # diagnosable next to the stage timings they interrupted.
        if other is None:
            get_tracer().event(f"resilience.{kind.value}", subject=subject)
        else:
            get_tracer().event(f"resilience.{kind.value}", subject=subject, other=other)

    def _on_oracle_retry(self, attempt: int, pause: float, error: ReproError) -> None:
        self.stats.retries += 1
        self._emit(EventKind.ORACLE_RETRY, attempt)

    # ------------------------------------------------------------------ #
    # oracle ladder (called by the refresh policies)
    # ------------------------------------------------------------------ #
    def guarded_rebuild(self, oracle: DistanceOracle) -> tuple[float, bool]:
        """Rebuild with retry; on exhaustion drop to the exact fallback.

        Returns ``(seconds_spent, success)``.  On failure the oracle serves
        its fresh-CSR Dijkstra fallback (exact, so correctness holds while
        the breaker waits for a recovery probe).  While the breaker is open
        the rebuild is not even attempted -- the fallback is refreshed and
        the recovery probe in :meth:`before_dispatch` owns the retry.
        """
        breaker = self.oracle_breaker
        start = time.perf_counter()
        if breaker.state is BreakerState.OPEN:
            oracle.enable_fallback()
            return time.perf_counter() - start, False
        try:
            _, seconds = self.retry.call(
                oracle.rebuild,
                rng=self._jitter_rng,
                error_type=OracleBuildError,
                describe="oracle rebuild",
                on_retry=self._on_oracle_retry,
            )
        except OracleBuildError:
            if breaker.record_failure():
                self._emit(EventKind.BREAKER_OPENED, ORACLE_BREAKER)
            oracle.enable_fallback()
            elapsed = time.perf_counter() - start
            self.stats.recovery_seconds += elapsed
            return elapsed, False
        if breaker.record_success():
            self._emit(EventKind.BREAKER_CLOSED, ORACLE_BREAKER)
        return seconds, True

    def guarded_repair(self, oracle: DistanceOracle) -> RepairReport:
        """Repair with retry; exhaustion climbs the ladder to a rebuild.

        Returns the backend's :class:`RepairReport` on success.  When the
        retry budget is exhausted the ladder trips to an immediate rebuild
        (itself guarded), reported as mode ``"rebuilt"`` -- or
        ``"fallback"`` when the rebuild failed too and the oracle is serving
        its exact Dijkstra fallback.
        """
        breaker = self.oracle_breaker
        start = time.perf_counter()
        if breaker.state is BreakerState.OPEN:
            oracle.enable_fallback()
            return RepairReport(
                mode="fallback", seconds=time.perf_counter() - start
            )
        try:
            report, _ = self.retry.call(
                oracle.repair,
                rng=self._jitter_rng,
                error_type=OracleRepairError,
                describe="oracle repair",
                on_retry=self._on_oracle_retry,
            )
        except OracleRepairError:
            repair_elapsed = time.perf_counter() - start
            self.stats.recovery_seconds += repair_elapsed
            seconds, rebuilt = self.guarded_rebuild(oracle)
            return RepairReport(
                mode="rebuilt" if rebuilt else "fallback",
                seconds=repair_elapsed + seconds,
            )
        if breaker.record_success():
            self._emit(EventKind.BREAKER_CLOSED, ORACLE_BREAKER)
        return report

    # ------------------------------------------------------------------ #
    # batch hooks (called by the simulator)
    # ------------------------------------------------------------------ #
    def before_dispatch(
        self, network: RoadNetwork, oracle: DistanceOracle, now: float
    ) -> None:
        """Oracle-breaker recovery probe + invariant probes, pre-dispatch.

        Runs after the scenario step (mutations + refresh) and before the
        batch is dispatched, so every dispatch prices insertions on a
        probe-verified oracle -- the ordering that makes accepted
        assignments parity-exact under injected corruption.
        """
        self._now = now
        breaker = self.oracle_breaker
        if breaker.state is BreakerState.OPEN and breaker.tick():
            self._attempt_oracle_recovery(oracle)
        self._run_probes(network, oracle)

    def _attempt_oracle_recovery(self, oracle: DistanceOracle) -> None:
        """Half-open probe: one unretried rebuild decides open vs closed."""
        start = time.perf_counter()
        try:
            oracle.rebuild()
        except ReproError:
            if self.oracle_breaker.record_failure():
                self._emit(EventKind.BREAKER_OPENED, ORACLE_BREAKER)
            oracle.enable_fallback()
        else:
            if self.oracle_breaker.record_success():
                self._emit(EventKind.BREAKER_CLOSED, ORACLE_BREAKER)
        self.stats.recovery_seconds += time.perf_counter() - start

    def _run_probes(self, network: RoadNetwork, oracle: DistanceOracle) -> None:
        """Invariant probes; mismatches trigger the self-healing rung."""
        probe_start = time.perf_counter()
        failures = self.probe.check(network, oracle)
        get_tracer().event(
            "resilience.probe",
            duration=time.perf_counter() - probe_start,
            pairs=self.probe.PAIRS,
            failures=len(failures),
        )
        if not failures:
            return
        self.stats.probe_failures += len(failures)
        self._emit(EventKind.PROBE_FAILED, len(failures))
        start = time.perf_counter()
        healed = False
        for _ in range(MAX_HEAL_ATTEMPTS):
            if isinstance(oracle, ChaosOracle):
                oracle.heal()
            self.guarded_rebuild(oracle)
            self.stats.self_heals += 1
            self._emit(EventKind.ORACLE_SELF_HEALED, len(failures))
            failures = self.probe.check(network, oracle)
            if not failures:
                healed = True
                break
            self.stats.probe_failures += len(failures)
            self._emit(EventKind.PROBE_FAILED, len(failures))
        if not healed:
            # Last rung: exact fresh-CSR Dijkstra with corruption cleared.
            if isinstance(oracle, ChaosOracle):
                oracle.heal()
            oracle.enable_fallback()
            failures = self.probe.check(network, oracle)
            if failures:
                worst = failures[0]
                raise ResilienceError(
                    "invariant probes still failing after self-healing and "
                    f"exact fallback: cost({worst.source}, {worst.target}) = "
                    f"{worst.got} but fresh Dijkstra says {worst.want}"
                )
        self.stats.recovery_seconds += time.perf_counter() - start

    def select_dispatcher(self, primary: Dispatcher) -> tuple[Dispatcher, bool]:
        """The dispatcher for this batch and whether it is the degraded one.

        Half-open probe batches run the primary dispatcher again; the
        following :meth:`observe_batch` decides whether the breaker closes
        (within budget) or re-opens.
        """
        breaker = self.dispatch_breaker
        if breaker.state is BreakerState.OPEN:
            if breaker.tick():
                return primary, False
            return self.degraded_dispatcher, True
        return primary, False

    def start_batch(self) -> None:
        """Discard virtual latency accrued outside dispatch (probes, advance)."""
        if self.injector is not None:
            self.injector.drain_latency()

    def observe_batch(self, *, degraded: bool, now: float) -> None:
        """Charge one dispatched batch's injected virtual latency against
        :attr:`BATCH_TIME_BUDGET` (a degraded batch is counted, not judged)."""
        self._now = now
        charged = (
            self.injector.drain_latency() if self.injector is not None else 0.0
        )
        if degraded:
            self.stats.degraded_batches += 1
            self._emit(EventKind.DISPATCH_DEGRADED, DISPATCH_BREAKER)
            return
        breaker = self.dispatch_breaker
        if charged > self.BATCH_TIME_BUDGET:
            self.stats.batch_overruns += 1
            if breaker.record_failure():
                self._emit(EventKind.BREAKER_OPENED, DISPATCH_BREAKER)
        elif breaker.record_success():
            self._emit(EventKind.BREAKER_CLOSED, DISPATCH_BREAKER)

    def finalize(
        self, network: RoadNetwork, oracle: DistanceOracle, now: float
    ) -> None:
        """Tail probes after the final refresh, before post-run advancing."""
        self._now = now
        self._run_probes(network, oracle)

    # ------------------------------------------------------------------ #
    # acceptance verification
    # ------------------------------------------------------------------ #
    def verify_assignments(
        self,
        network: RoadNetwork,
        oracle: DistanceOracle,
        assignments: Sequence[Assignment],
        vehicles_by_id: Mapping[int, Vehicle],
    ) -> None:
        """Check every accepted assignment's leg costs against fresh Dijkstra.

        Verifies the invariant the resilience layer promises: whatever
        faults were injected, the costs dispatch committed to are exact.
        Raises :class:`ResilienceError` on the first deviation.
        """
        for assignment in assignments:
            nodes = list(assignment.schedule.nodes())
            vehicle = vehicles_by_id.get(assignment.vehicle_id)
            if vehicle is not None:
                nodes = [vehicle.location, *nodes]
            legs = [(u, v) for u, v in zip(nodes, nodes[1:]) if u != v]
            for failure in exact_cost_failures(network, oracle, legs):
                raise ResilienceError(
                    f"accepted assignment for vehicle {assignment.vehicle_id} "
                    f"priced leg ({failure.source}, {failure.target}) at "
                    f"{failure.got} but fresh Dijkstra says {failure.want} -- "
                    "the oracle served an inexact cost"
                )


__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilienceManager",
    "ResilienceStats",
]
