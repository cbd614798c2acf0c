"""Oracle refresh policies for a mutating road network.

The preprocessed routing backends (``ch``, ``hub_label``) answer queries
from structures that a world event invalidates.  Rebuilding them is two to
three orders of magnitude more expensive than one query, so *when* to
rebuild is a real scheduling decision.  Three policies are provided:

``eager``
    Rebuild immediately after every mutation burst.  Queries are never
    served stale and never fall back, at the price of one full rebuild per
    burst -- the right choice for rare, isolated events.
``deferred``
    Switch the oracle to its fresh-CSR Dijkstra fallback (exact, just
    slower per query) and rebuild only once a staleness budget runs out:
    either ``MAX_STALE_BATCHES`` batch boundaries served on the fallback or
    ``FALLBACK_QUERY_BUDGET`` fallback queries, whichever comes first.
    Amortises rebuilds over clustered events at a bounded query-time cost.
``coalesce``
    Like ``deferred``, but the rebuild happens at the first batch boundary
    with no further events due -- consecutive bursts (a traffic wave
    rolling over adjacent zones) collapse into a single rebuild.
``repair``
    Absorb every burst immediately via
    :meth:`~repro.network.shortest_path.DistanceOracle.repair` (see
    :class:`RepairRefreshPolicy`).

A rebuild that returns to a routing state the oracle still holds (a receded
wave) adopts it instead of building; it still counts in
``RefreshStats.rebuilds`` -- the count records decisions, ``rebuild_seconds``
their cost.  The simulator copies :class:`RefreshStats` into the run metrics
(``oracle_rebuilds``, ``oracle_rebuild_seconds``, ...), so refresh overhead
is a first-class experimental output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import REFRESH_POLICIES, ScenarioConfig
from ..exceptions import ConfigurationError
from ..network.shortest_path import DistanceOracle
from ..observability.trace import get_tracer


@dataclass
class RefreshStats:
    """What a refresh policy did during one simulation run."""

    #: Mutation bursts reported by the simulator.
    mutation_bursts: int = 0
    #: Full backend rebuilds performed and their summed wall-clock cost.
    rebuilds: int = 0
    rebuild_seconds: float = 0.0
    #: Bursts whose rebuild was deferred (served via the Dijkstra fallback).
    deferred_bursts: int = 0
    #: Batch boundaries at which queries were served by the fallback.
    stale_batches: int = 0
    #: Wall-clock time between entering fallback mode and the rebuild that
    #: cleared it ("stale-serving time").
    stale_seconds: float = 0.0
    #: Bursts absorbed without a full rebuild (incremental re-contraction
    #: or snapshot swap) and their summed wall-clock cost.
    repairs: int = 0
    repair_seconds: float = 0.0
    #: Of those, bursts answered by an exact-reversion snapshot swap.
    snapshot_hits: int = 0
    #: Hierarchy nodes re-contracted and overlay effects (shortcut
    #: insertions / reductions) spliced across all incremental repairs.
    nodes_recontracted: int = 0
    shortcuts_replaced: int = 0
    _stale_since: float | None = field(default=None, repr=False)

    def mark_stale(self) -> None:
        """Start the stale-serving clock (idempotent)."""
        if self._stale_since is None:
            self._stale_since = time.perf_counter()

    def clear_stale(self) -> None:
        """Stop the stale-serving clock and accumulate the window."""
        if self._stale_since is not None:
            self.stale_seconds += time.perf_counter() - self._stale_since
            self._stale_since = None


class OracleRefreshPolicy:
    """Base policy: how the oracle follows a mutating network.

    The simulator drives the protocol at every batch boundary:

    1. ``on_batch_start(oracle, now, more_events_due)`` -- before applying
       this boundary's events (deferred rebuilds happen here);
    2. ``on_mutations(oracle, now, mutations)`` -- right after a non-empty
       mutation burst was applied;
    3. ``finalize(oracle)`` -- once, after the last batch, so the tail of
       the run (vehicles finishing their schedules) never sees a stale or
       fallback oracle.

    When a :class:`~repro.resilience.degrade.ResilienceManager` is attached
    (the simulator sets :attr:`resilience` at run start), every rebuild and
    repair is routed through its guarded wrappers: failures are retried
    with backoff and, once exhausted, degrade to the exact Dijkstra
    fallback instead of propagating -- the policy then keeps the stale
    clock running until a later refresh lands.
    """

    name = "base"

    def __init__(self) -> None:
        self.stats = RefreshStats()
        #: Optional :class:`~repro.resilience.degrade.ResilienceManager`
        #: guarding the refresh operations (``None`` = unguarded).
        self.resilience = None

    # -- protocol ------------------------------------------------------- #
    def on_batch_start(
        self, oracle: DistanceOracle, now: float, more_events_due: bool
    ) -> None:
        if oracle.serving_fallback:
            self.stats.stale_batches += 1

    def on_mutations(self, oracle: DistanceOracle, now: float, mutations: int) -> None:
        raise NotImplementedError

    def finalize(self, oracle: DistanceOracle) -> None:
        if oracle.serving_fallback or oracle.is_stale:
            self._rebuild(oracle)

    # -- shared helpers ------------------------------------------------- #
    def _rebuild(self, oracle: DistanceOracle) -> None:
        manager = self.resilience
        seconds, rebuilt = (
            manager.guarded_rebuild(oracle) if manager else (oracle.rebuild(), True)
        )
        self.stats.rebuild_seconds += seconds
        get_tracer().event(
            "oracle.rebuild",
            duration=seconds,
            policy=self.name,
            backend=oracle.backend_name,
            succeeded=rebuilt,
        )
        if rebuilt:
            self.stats.rebuilds += 1
            self.stats.clear_stale()
        else:
            # Retry exhausted (or breaker open): the oracle serves its exact
            # fresh-CSR fallback; the stale clock keeps running until the
            # breaker's recovery probe lands a rebuild.
            self.stats.mark_stale()

    def _defer(self, oracle: DistanceOracle) -> None:
        oracle.enable_fallback()
        self.stats.deferred_bursts += 1
        self.stats.mark_stale()
        get_tracer().event("oracle.defer", policy=self.name)


class EagerRefreshPolicy(OracleRefreshPolicy):
    """Rebuild after every mutation burst; queries never run stale."""

    name = "eager"

    def on_mutations(self, oracle: DistanceOracle, now: float, mutations: int) -> None:
        self.stats.mutation_bursts += 1
        self._rebuild(oracle)


class DeferredRefreshPolicy(OracleRefreshPolicy):
    """Serve dirty windows on the Dijkstra fallback under a staleness budget."""

    name = "deferred"
    #: Rebuild after this many batch boundaries served stale.
    MAX_STALE_BATCHES = 3
    #: Rebuild once this many queries were served by the Dijkstra fallback
    #: since the preprocessed structures went stale (the budget bounds the
    #: *total* stale-serving work, across bursts that land inside one
    #: fallback window).
    FALLBACK_QUERY_BUDGET = 2_000

    def __init__(self) -> None:
        super().__init__()
        self._batches_stale = 0
        self._fallback_baseline = 0

    def on_batch_start(
        self, oracle: DistanceOracle, now: float, more_events_due: bool
    ) -> None:
        super().on_batch_start(oracle, now, more_events_due)
        if not oracle.serving_fallback:
            return
        self._batches_stale += 1
        served = oracle.stats.fallback_queries - self._fallback_baseline
        if self._batches_stale >= self.MAX_STALE_BATCHES or (
            served >= self.FALLBACK_QUERY_BUDGET
        ):
            self._rebuild(oracle)
            self._batches_stale = 0

    def on_mutations(self, oracle: DistanceOracle, now: float, mutations: int) -> None:
        self.stats.mutation_bursts += 1
        if not oracle.serving_fallback:
            self._batches_stale = 0
            self._fallback_baseline = oracle.stats.fallback_queries
        self._defer(oracle)


class RepairRefreshPolicy(OracleRefreshPolicy):
    """Absorb every burst immediately via incremental CH repair.

    Behaves like ``eager`` from the queries' point of view -- never stale,
    never on the fallback -- but pays per burst only for the affected cells
    of the hierarchy (or an O(E log E) snapshot swap when the burst reverts
    to a recently seen network state).  Bursts whose affected set exceeds
    :data:`~repro.network.routing.contraction.REPAIR_MAX_FRACTION` of all
    nodes fall back to a full rebuild, recorded under the ordinary rebuild
    counters.
    """

    name = "repair"

    def on_mutations(self, oracle: DistanceOracle, now: float, mutations: int) -> None:
        self.stats.mutation_bursts += 1
        self._repair(oracle)

    def finalize(self, oracle: DistanceOracle) -> None:
        if oracle.serving_fallback or oracle.is_stale:
            self._repair(oracle)

    def _repair(self, oracle: DistanceOracle) -> None:
        manager = self.resilience
        report = manager.guarded_repair(oracle) if manager else oracle.repair()
        if report.mode != "noop":
            get_tracer().event(
                "oracle.repair",
                duration=report.seconds,
                policy=self.name,
                backend=oracle.backend_name,
                mode=report.mode,
                nodes_recontracted=report.nodes_recontracted,
            )
        stats = self.stats
        if report.mode == "fallback":
            # Resilience ladder exhausted repair *and* rebuild: the oracle
            # serves its exact Dijkstra fallback until recovery.
            stats.deferred_bursts += 1
            stats.mark_stale()
            return
        if report.mode == "rebuilt":
            stats.rebuilds += 1
            stats.rebuild_seconds += report.seconds
        elif report.mode != "noop":
            stats.repairs += 1
            stats.repair_seconds += report.seconds
            stats.nodes_recontracted += report.nodes_recontracted
            stats.shortcuts_replaced += report.shortcuts_replaced
            if report.mode == "snapshot":
                stats.snapshot_hits += 1
        stats.clear_stale()


class CoalescingRefreshPolicy(OracleRefreshPolicy):
    """One rebuild per quiet batch boundary, folding adjacent bursts."""

    name = "coalesce"

    def on_batch_start(
        self, oracle: DistanceOracle, now: float, more_events_due: bool
    ) -> None:
        super().on_batch_start(oracle, now, more_events_due)
        if oracle.serving_fallback and not more_events_due:
            self._rebuild(oracle)

    def on_mutations(self, oracle: DistanceOracle, now: float, mutations: int) -> None:
        self.stats.mutation_bursts += 1
        self._defer(oracle)


_POLICIES: dict[str, type[OracleRefreshPolicy]] = {
    policy.name: policy
    for policy in (
        EagerRefreshPolicy,
        DeferredRefreshPolicy,
        CoalescingRefreshPolicy,
        RepairRefreshPolicy,
    )
}


def make_refresh_policy(
    name: str | None = None, *, config: ScenarioConfig | None = None
) -> OracleRefreshPolicy:
    """Instantiate a refresh policy by name (or by a scenario config's name)."""
    if config is not None and name is None:
        name = config.refresh_policy
    policy = _POLICIES.get((name or "coalesce").lower())
    if policy is None:
        raise ConfigurationError(
            f"unknown refresh policy {name!r}; choose from {REFRESH_POLICIES}"
        )
    return policy()
