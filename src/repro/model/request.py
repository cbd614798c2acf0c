"""Ride requests (Definition 1 of the paper)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError


@dataclass(frozen=True, order=True)
class Request:
    """A ridesharing request ``r_i = <s_i, e_i, n_i, t_i, d_i>``.

    Attributes
    ----------
    request_id:
        Unique integer identifier.
    source, destination:
        Road-network node identifiers of the pick-up and drop-off locations.
    riders:
        Number of riders travelling together (``n_i``).
    release_time:
        Time the request becomes known to the platform (``t_i``), in seconds.
    deadline:
        Latest acceptable drop-off time (``d_i``), in seconds.  The usual
        construction is ``release_time + gamma * direct_cost``.
    direct_cost:
        Shortest travel time from source to destination (``cost(r_i)``), in
        seconds.  Cached on the request because the unified cost, the penalty
        term and many pruning rules reuse it.
    max_wait:
        Maximum time the rider will wait for pick-up after the release time
        (the paper uses 5 minutes).
    """

    # ``order=True`` sorts by release time first, which is the natural
    # processing order for online baselines.
    release_time: float
    request_id: int
    source: int
    destination: int
    riders: int = 1
    deadline: float = math.inf
    direct_cost: float = 0.0
    max_wait: float = math.inf
    #: Latest feasible pick-up time: bounded by the drop-off deadline minus
    #: the direct travel time (``ddl(o_k) = d_i - cost(s_i, e_i)`` in the
    #: paper) and by the rider's maximum waiting time.  Derived once in
    #: ``__post_init__`` and deliberately not a field (no annotation), so
    #: equality, ordering, ``repr`` and ``asdict`` see the eight fields only.
    latest_pickup = math.nan

    def __post_init__(self) -> None:
        if self.riders < 1:
            raise ConfigurationError(
                f"request {self.request_id} must carry at least one rider"
            )
        if self.direct_cost < 0:
            raise ConfigurationError(
                f"request {self.request_id} has negative direct cost"
            )
        if self.deadline < self.release_time:
            raise ConfigurationError(
                f"request {self.request_id} has a deadline before its release time"
            )
        if self.max_wait < 0:
            raise ConfigurationError(
                f"request {self.request_id} has a negative maximum waiting time"
            )
        object.__setattr__(
            self,
            "latest_pickup",
            min(self.release_time + self.max_wait, self.deadline - self.direct_cost),
        )

    def __hash__(self) -> int:
        # Equal requests have equal ids; the outcome tables and pending pools
        # keyed by requests hash one int instead of eight fields.
        return self.request_id

    # ------------------------------------------------------------------ #
    # derived deadlines
    # ------------------------------------------------------------------ #
    @property
    def detour_budget(self) -> float:
        """Extra travel time the rider tolerates beyond the direct trip."""
        return self.deadline - self.release_time - self.direct_cost

    def is_expired(self, current_time: float) -> bool:
        """True when the request can no longer be picked up in time."""
        return current_time > self.latest_pickup

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        request_id: int,
        source: int,
        destination: int,
        release_time: float,
        *,
        direct_cost: float,
        gamma: float,
        max_wait: float = math.inf,
        riders: int = 1,
    ) -> "Request":
        """Build a request with ``deadline = release + gamma * direct_cost``.

        This mirrors the deadline construction used throughout the paper's
        experiments (Section V-A).
        """
        if gamma <= 1.0:
            raise ConfigurationError("gamma must be > 1 when deriving deadlines")
        deadline = release_time + gamma * direct_cost
        return cls(
            request_id=request_id,
            source=source,
            destination=destination,
            riders=riders,
            release_time=release_time,
            deadline=deadline,
            direct_cost=direct_cost,
            max_wait=max_wait,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Request({self.request_id}: {self.source}->{self.destination}, "
            f"t={self.release_time:.0f}, d={self.deadline:.0f}, n={self.riders})"
        )
