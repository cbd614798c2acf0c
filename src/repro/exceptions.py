"""Exception hierarchy for the StructRide reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with one ``except`` clause while still being able to
distinguish configuration problems from infeasible-schedule conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a configuration value is missing, inconsistent or invalid."""


#: Short alias used throughout the scenario engine docs and messages.
ConfigError = ConfigurationError


class ScenarioError(ReproError):
    """Raised when a scenario timeline or world event is inconsistent."""


class NetworkError(ReproError):
    """Raised for malformed road networks (unknown nodes, negative costs, ...)."""


class UnreachableError(NetworkError):
    """Raised when a shortest-path query is made between disconnected nodes."""


class ScheduleError(ReproError):
    """Raised when a schedule violates a structural constraint."""


class DispatchError(ReproError):
    """Raised when a dispatcher receives inconsistent simulation state."""


class WorkloadError(ReproError):
    """Raised when a workload generator cannot satisfy the requested shape."""


class ResilienceError(ReproError):
    """Raised when the resilience layer cannot keep a run serviceable.

    This is the terminal error of the degradation ladder: every rung below
    it (retry, eager rebuild, exact Dijkstra fallback, self-healing probe
    rebuild) has been exhausted and the oracle still cannot serve exact
    costs.
    """


class OracleBuildError(ResilienceError):
    """Raised when an oracle rebuild keeps failing after retry is exhausted."""


class OracleRepairError(ResilienceError):
    """Raised when an oracle repair keeps failing after retry is exhausted."""


class ServiceError(ReproError):
    """Raised when the dispatch service is driven outside its lifecycle.

    Examples: submitting to a service that was never started, ticking a
    stopped service, or a drain that exceeds the configured batch budget.
    """


class SchemaError(ServiceError):
    """Raised when a service request/response payload fails validation.

    Covers both construction-time validation (a :class:`RideRequest` with
    zero riders) and wire-format problems (unknown fields, an incompatible
    ``schema_version``, malformed JSON).
    """


class InjectedFaultError(ReproError):
    """Raised by the fault injector to simulate a backend build/repair crash.

    Deliberately *not* a :class:`ResilienceError`: injected faults model the
    transient failures the retry/degradation machinery is supposed to absorb,
    so they must be caught by the same handlers that catch real backend
    errors, not by handlers watching for resilience exhaustion.
    """
