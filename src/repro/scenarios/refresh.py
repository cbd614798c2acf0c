"""Oracle refresh policies for a mutating road network.

The preprocessed routing backends (``ch``, ``hub_label``) answer queries
from structures that a world event invalidates.  Rebuilding them (a
witness-free contraction and a label pass, about 0.1 s on the 676-node city)
costs thousands of queries, so *when* to rebuild is a real scheduling
decision.  Two policies are provided:

``coalesce``
    Switch the oracle to its fresh-CSR Dijkstra fallback (exact, just
    slower per query) and rebuild at the first batch boundary with no
    further events due -- consecutive bursts (a traffic wave rolling over
    adjacent zones) collapse into a single rebuild.
``repair``
    Absorb every burst immediately via
    :meth:`~repro.network.shortest_path.DistanceOracle.repair`: a snapshot
    swap when the burst returns to a held state, else a full rebuild (see
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

    #: Full backend rebuilds performed and their summed wall-clock cost.
    rebuilds: int = 0
    rebuild_seconds: float = 0.0
    #: Wall-clock time between entering fallback mode and the rebuild that
    #: cleared it ("stale-serving time").
    stale_seconds: float = 0.0
    #: Bursts absorbed without a full rebuild (an exact-reversion snapshot
    #: swap) and their summed wall-clock cost.
    repairs: int = 0
    repair_seconds: float = 0.0
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

    1. ``on_batch_start(oracle, more_events_due)`` -- before applying this
       boundary's events (``coalesce`` rebuilds here);
    2. ``on_mutations(oracle)`` -- right after a non-empty mutation burst
       was applied;
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
    def on_batch_start(self, oracle: DistanceOracle, more_events_due: bool) -> None:
        pass

    def on_mutations(self, oracle: DistanceOracle) -> None:
        raise NotImplementedError

    def finalize(self, oracle: DistanceOracle) -> None:
        if oracle.serving_fallback or oracle.is_stale:
            self._catch_up(oracle)

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

    _catch_up = _rebuild  # what finalize runs on a stale oracle


class CoalescingRefreshPolicy(OracleRefreshPolicy):
    """One rebuild per quiet batch boundary, folding adjacent bursts."""

    name = "coalesce"

    def on_batch_start(self, oracle: DistanceOracle, more_events_due: bool) -> None:
        if oracle.serving_fallback and not more_events_due:
            self._rebuild(oracle)

    def on_mutations(self, oracle: DistanceOracle) -> None:
        oracle.enable_fallback()
        self.stats.mark_stale()
        get_tracer().event("oracle.defer", policy=self.name)


class RepairRefreshPolicy(OracleRefreshPolicy):
    """Absorb every burst immediately: snapshot swap, else a full rebuild.

    From the queries' point of view never stale, never on the fallback.  A
    burst that reverts to a recently seen network state costs an
    O(E log E) snapshot swap (counted in ``repairs``); any other burst
    rebuilds, recorded under the ordinary rebuild counters.
    """

    name = "repair"

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
            )
        stats = self.stats
        if report.mode == "fallback":
            # Resilience ladder exhausted repair *and* rebuild: the oracle
            # serves its exact Dijkstra fallback until recovery.
            stats.mark_stale()
            return
        if report.mode == "rebuilt":
            stats.rebuilds += 1
            stats.rebuild_seconds += report.seconds
        elif report.mode != "noop":
            stats.repairs += 1
            stats.repair_seconds += report.seconds
        stats.clear_stale()

    on_mutations = _catch_up = _repair


_POLICIES: dict[str, type[OracleRefreshPolicy]] = {
    policy.name: policy for policy in (CoalescingRefreshPolicy, RepairRefreshPolicy)
}


def make_refresh_policy(
    name: str | None = None, *, config: ScenarioConfig | None = None
) -> OracleRefreshPolicy:
    """Instantiate a refresh policy by name, else by a scenario config's
    name (``ScenarioConfig``'s default when neither is given)."""
    name = name or (config or ScenarioConfig()).refresh_policy
    policy = _POLICIES.get(name)
    if policy is None:
        raise ConfigurationError(
            f"unknown refresh policy {name!r}; choose from {REFRESH_POLICIES}"
        )
    return policy()
