"""Configuration objects for simulations and experiments.

The parameter names follow Table II / Table III of the paper:

* ``gamma`` -- deadline parameter: the deadline of request *r* is
  ``release_time + gamma * cost(source, destination)``.
* ``penalty_coefficient`` (``pr``) -- multiplier applied to the direct travel
  cost of every unserved request inside the unified cost (Equation 3).
* ``batch_period`` (``Delta``) -- length of a batch in seconds.
* ``capacity`` (``c``) -- number of seats of a vehicle.
* ``max_wait`` -- maximum time a rider is willing to wait for pick-up
  (the paper uses 5 minutes, following Santi et al.).
* ``angle_threshold`` (``delta``) -- angle pruning threshold in radians used
  by the shareability-graph builder; ``None`` disables the pruning rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, ClassVar

from .exceptions import ConfigurationError
from .network.routing import BACKEND_NAMES
from .numeric import to_grid

#: Default maximum waiting time for a pick-up, in seconds (5 minutes).
DEFAULT_MAX_WAIT = 300.0

#: Mean driving speed in m/s that turns a time slack into a search radius.
AVERAGE_SPEED = 10.0

#: Default angle pruning threshold, in radians (pi / 2 as used in the paper).
DEFAULT_ANGLE_THRESHOLD = math.pi / 2.0

#: Oracle refresh policies accepted by ``ScenarioConfig.refresh_policy`` and
#: :func:`repro.scenarios.refresh.make_refresh_policy`: ``coalesce`` defers
#: to one rebuild per quiet batch boundary, ``repair`` refreshes after every
#: burst (a snapshot swap for an exact reversion, else a full rebuild).
REFRESH_POLICIES = ("coalesce", "repair")

#: Admission policies accepted by ``ServiceConfig.admission_policy``:
#: ``reject`` refuses new requests while the ingestion queue is full
#: (backpressure propagates to the submitter), ``drop_oldest`` sheds the
#: longest-queued request instead (freshness wins under overload).
ADMISSION_POLICIES = ("reject", "drop_oldest")


def _require_finite(name: str, value: float) -> None:
    """Reject NaN and infinite values with a clear ConfigError.

    Comparison-based range checks silently accept NaN (every comparison with
    NaN is false), so every float knob is funnelled through this guard before
    its range is checked -- a NaN gamma or batch period would otherwise only
    blow up batches deep into a simulation.
    """
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number (got {value!r})")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters controlling one simulated day of batched dispatching.

    The defaults reproduce the bold entries of Table III in the paper,
    scaled to a laptop-sized synthetic workload.  All durations are in
    seconds and all travel costs are in seconds of travel time.
    """

    #: Deadline parameter gamma (> 1): deadline = release + gamma * direct cost.
    gamma: float = 1.5
    #: Penalty coefficient pr for unserved requests in the unified cost.
    penalty_coefficient: float = 10.0
    #: Batch period Delta in seconds, rounded up to the time grid
    #: (:mod:`repro.numeric`) so every batch boundary is on it.
    batch_period: float = 3.0
    #: Vehicle capacity c (seats).  Per-vehicle overrides are possible.
    capacity: int = 3
    #: Weight alpha of the travel-cost term in the unified cost; the paper
    #: fixes it to 1, so it is a constant rather than a field.
    alpha: ClassVar[float] = 1.0
    #: Maximum rider waiting time before pick-up, in seconds.
    max_wait: float = DEFAULT_MAX_WAIT
    #: Angle pruning threshold delta in radians; ``None`` disables pruning.
    angle_threshold: float | None = DEFAULT_ANGLE_THRESHOLD
    #: Routing backend answering ``cost(u, v)`` queries: ``"dijkstra"``
    #: (per-query CSR search, the reference) or ``"hub_label"`` (hub labels
    #: computed from a contraction hierarchy at set-up -- the paper's
    #: oracle); ``"ch"`` is the same labels under the ledger's name.
    routing_backend: str = "dijkstra"

    def __post_init__(self) -> None:
        for name in ("gamma", "penalty_coefficient", "batch_period", "max_wait"):
            _require_finite(name, getattr(self, name))
        if self.angle_threshold is not None:
            _require_finite("angle_threshold", self.angle_threshold)
        if self.gamma <= 1.0:
            raise ConfigurationError(
                f"gamma must be > 1 (got {self.gamma}); a deadline equal to the "
                "direct travel time leaves no room for detours"
            )
        if self.penalty_coefficient < 0:
            raise ConfigurationError("penalty_coefficient must be non-negative")
        if self.batch_period <= 0:
            raise ConfigurationError("batch_period must be positive")
        object.__setattr__(self, "batch_period", to_grid(self.batch_period, up=True))
        if self.capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        if self.max_wait < 0:
            raise ConfigurationError("max_wait must be non-negative")
        if self.angle_threshold is not None and not 0 < self.angle_threshold <= math.pi:
            raise ConfigurationError(
                "angle_threshold must be in (0, pi] radians or None to disable"
            )
        if self.routing_backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"routing_backend must be one of {BACKEND_NAMES} "
                f"(got {self.routing_backend!r})"
            )

    def with_overrides(self, **overrides: Any) -> "SimulationConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a synthetic workload used to stand in for the real traces.

    The three presets (``chengdu_like``, ``nyc_like``, ``cainiao_like``)
    differ only in these knobs; see :mod:`repro.workloads.presets`.
    """

    #: Identifier used in reports ("CHD", "NYC", "Cainiao", ...).
    name: str = "synthetic"
    #: Number of requests to generate.
    num_requests: int = 2000
    #: Number of vehicles.
    num_vehicles: int = 60
    #: Length of the request-arrival horizon in seconds.  Ignored when
    #: ``arrival_rate`` is positive (the horizon is then derived from it).
    horizon: float = 1800.0
    #: Mean request arrival rate in requests per second.  When positive the
    #: horizon becomes ``num_requests / arrival_rate`` so that scaling the
    #: request count up or down preserves the per-batch request density --
    #: the property batch-mode dispatchers are sensitive to.
    arrival_rate: float = 0.0
    #: Mean of ln(trip travel time) for the log-normal trip-length model.
    trip_log_mean: float = math.log(420.0)
    #: Standard deviation of ln(trip travel time).
    trip_log_sigma: float = 0.55
    #: Number of demand hotspots (origin/destination clusters).
    num_hotspots: int = 6
    #: Fraction of requests whose origin is drawn from a hotspot.
    hotspot_fraction: float = 0.7
    #: Mean number of riders per request (1 rider with prob ~ 1/mean tail).
    mean_riders: float = 1.3
    #: Random seed for workload generation.
    seed: int = 7
    #: Standard deviation sigma of the vehicle-capacity distribution
    #: (paper Appendix C); 0 means every vehicle has the default capacity.
    capacity_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "horizon", "arrival_rate", "trip_log_mean", "trip_log_sigma",
            "hotspot_fraction", "mean_riders", "capacity_sigma",
        ):
            _require_finite(name, getattr(self, name))
        if self.num_requests < 0:
            raise ConfigurationError("num_requests must be non-negative")
        if self.num_vehicles < 1:
            raise ConfigurationError(
                f"num_vehicles must be at least 1 (got {self.num_vehicles}); "
                "a zero fleet can serve no request -- scenario-driven fleets "
                "should start with one vehicle and use vehicle shift events"
            )
        if self.num_hotspots < 0:
            raise ConfigurationError("num_hotspots must be non-negative")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be non-negative")
        if self.trip_log_sigma < 0:
            raise ConfigurationError("trip_log_sigma must be non-negative")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot_fraction must be in [0, 1]")
        if self.mean_riders < 1.0:
            raise ConfigurationError("mean_riders must be at least 1")
        if self.capacity_sigma < 0:
            raise ConfigurationError("capacity_sigma must be non-negative")

    @property
    def effective_horizon(self) -> float:
        """Arrival horizon actually used by the request generator."""
        if self.arrival_rate > 0:
            return max(self.num_requests / self.arrival_rate, 1.0)
        return self.horizon

    def with_overrides(self, **overrides: Any) -> "WorkloadConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class DemandSurge:
    """One demand-surge window modulating the synthetic request generator.

    During ``[start, end)`` the request arrival intensity is multiplied by
    ``rate_multiplier`` (the total request count is fixed, so other windows
    thin out proportionally -- the paper's batches then see the density
    spike).  With a ``center`` node, a ``attraction`` fraction of the
    requests released inside the window is additionally anchored to it:
    ``"outbound"`` surges draw *origins* near the center (a stadium
    emptying), ``"inbound"`` surges draw *destinations* near it (an arena
    filling up before the event).
    """

    #: Window bounds in seconds of simulated time.
    start: float
    end: float
    #: Arrival-intensity multiplier inside the window (>= 0; 0 is a lull).
    rate_multiplier: float = 1.0
    #: Node the surge demand is anchored to (``None`` leaves the spatial
    #: distribution untouched).
    center: int | None = None
    #: Fraction of in-window requests anchored to ``center``.
    attraction: float = 0.7
    #: ``"outbound"`` (origins near the center) or ``"inbound"``.
    direction: str = "outbound"

    def __post_init__(self) -> None:
        _require_finite("start", self.start)
        _require_finite("end", self.end)
        _require_finite("rate_multiplier", self.rate_multiplier)
        _require_finite("attraction", self.attraction)
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"surge window [{self.start}, {self.end}) must be non-empty "
                "and start at a non-negative time"
            )
        if self.rate_multiplier < 0:
            raise ConfigurationError(
                f"rate_multiplier must be non-negative (got {self.rate_multiplier})"
            )
        if not 0.0 <= self.attraction <= 1.0:
            raise ConfigurationError("attraction must be in [0, 1]")
        if self.direction not in ("outbound", "inbound"):
            raise ConfigurationError(
                f"direction must be 'outbound' or 'inbound' (got {self.direction!r})"
            )

    def active(self, time: float) -> bool:
        """True when ``time`` falls inside the surge window."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class ScenarioConfig:
    """The refresh policy a dynamic-world scenario runs under.

    The policy picks how the routing oracle is kept consistent with the
    mutating network (see :mod:`repro.scenarios.refresh`); the presets'
    intensities are constants of :mod:`repro.scenarios.presets`.
    """

    #: Oracle refresh policy, and the one place its default is written:
    #: ``"coalesce"`` folds all bursts since the last rebuild into one
    #: rebuild at the next quiet batch boundary, ``"repair"`` refreshes at
    #: once after every burst: a snapshot swap for an exact reversion, else
    #: a full rebuild.
    refresh_policy: str = "coalesce"

    def __post_init__(self) -> None:
        if self.refresh_policy not in REFRESH_POLICIES:
            raise ConfigurationError(
                f"refresh_policy must be one of {REFRESH_POLICIES} "
                f"(got {self.refresh_policy!r})"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the dispatch service (:mod:`repro.service`).

    The service wraps the batch simulator in a long-lived loop: an ingestion
    queue admits typed ride requests, a virtual-clock batch tick drains the
    queue into the dispatcher, and assignment events stream out to
    subscribers.  These knobs size the queue, pick the overload behaviour
    and bound the retained event history.
    """

    #: Capacity of the ingestion queue.  A full queue either rejects new
    #: requests or sheds the oldest queued one, per ``admission_policy``;
    #: async submitters using :meth:`repro.service.IngestionQueue.put` block
    #: (backpressure) instead of being rejected.
    queue_capacity: int = 512
    #: Overload behaviour of a full queue (see :data:`ADMISSION_POLICIES`).
    admission_policy: str = "reject"
    #: Assignment events buffered for late subscribers / post-hoc queries
    #: (0 keeps streaming to live subscribers but retains no history).
    event_history: int = 10_000

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be at least 1 (got {self.queue_capacity})"
            )
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission_policy must be one of {ADMISSION_POLICIES} "
                f"(got {self.admission_policy!r})"
            )
        if self.event_history < 0:
            raise ConfigurationError("event_history must be non-negative")


@dataclass(frozen=True)
class ChaosConfig:
    """Per-operation fault rates driving the seeded fault injector.

    All rates are probabilities in ``[0, 1]`` evaluated independently per
    operation from RNG streams derived from ``seed``, so the same config
    produces the same fault sequence on every run (the chaos determinism
    contract).  A config with every rate at zero injects nothing --
    :attr:`enabled` is then false and the chaos oracle behaves exactly like
    a plain :class:`~repro.network.shortest_path.DistanceOracle`.
    """

    #: Seed of the injector's RNG streams (faults and latency spikes draw
    #: from separate streams so enabling spikes never shifts fault draws).
    seed: int = 17
    #: Probability that one backend rebuild raises before doing any work.
    rebuild_failure_rate: float = 0.0
    #: Probability that one repair raises before doing any work.
    repair_failure_rate: float = 0.0
    #: Probability that a *successful* rebuild/repair/snapshot swap leaves
    #: the oracle silently corrupted (queries scaled by
    #: ``corruption_factor`` until a probe-triggered heal).
    corruption_rate: float = 0.0
    #: Multiplier applied to corrupted query results; must be positive and
    #: different from 1 so the corruption is parity-detectable.
    corruption_factor: float = 1.07
    #: Probability that one oracle query incurs a latency spike.
    query_spike_rate: float = 0.0
    #: Virtual seconds one latency spike charges to the batch time budget
    #: (charged, never slept, so chaos runs stay fast and deterministic).
    spike_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "rebuild_failure_rate", "repair_failure_rate", "corruption_rate",
            "corruption_factor", "query_spike_rate", "spike_seconds",
        ):
            _require_finite(name, getattr(self, name))
        for name in ("rebuild_failure_rate", "repair_failure_rate",
                     "corruption_rate", "query_spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1] (got {value})")
        if self.corruption_factor <= 0 or self.corruption_factor == 1.0:
            raise ConfigurationError(
                "corruption_factor must be positive and != 1 "
                f"(got {self.corruption_factor}); a factor of 1 would make "
                "corruption undetectable by parity probes"
            )
        if self.spike_seconds < 0:
            raise ConfigurationError("spike_seconds must be non-negative")

    @property
    def enabled(self) -> bool:
        """True when at least one fault rate is positive."""
        return (
            self.rebuild_failure_rate > 0
            or self.repair_failure_rate > 0
            or self.corruption_rate > 0
            or self.query_spike_rate > 0
        )

    def with_overrides(self, **overrides: Any) -> "ChaosConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)
