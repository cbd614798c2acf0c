"""Retry with exponential backoff, jitter and a deadline budget.

Backoff pauses are *virtual*: they are drawn, recorded and charged against
the deadline budget, but never slept.  Sleeping inside the simulator would
slow chaos runs down for no benefit and -- worse -- couple breaker decisions
to wall-clock scheduling noise; charging virtual seconds keeps retry
behaviour reproducible from the RNG seed alone.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from random import Random
from typing import Any, TypeVar

from ..exceptions import ReproError

T = TypeVar("T")


class RetryPolicy:
    """Exponential backoff with jitter under a deadline budget.

    Retries only on :class:`~repro.exceptions.ReproError` (injected faults
    and library errors); anything else -- a genuine bug -- propagates
    immediately.  When attempts or the deadline budget run out, the last
    error is re-raised wrapped in the caller-provided typed error
    (:class:`~repro.exceptions.OracleBuildError` /
    :class:`~repro.exceptions.OracleRepairError`).
    """

    #: Total attempts (first try + retries) per operation.
    MAX_ATTEMPTS = 3
    #: First backoff pause in (virtual) seconds.
    BASE_DELAY = 0.05
    #: Multiplier applied to the pause after every failed attempt.
    MULTIPLIER = 2.0
    #: Relative jitter: each pause is scaled by a factor drawn uniformly
    #: from ``[1 - JITTER, 1 + JITTER]``.
    JITTER = 0.25
    #: Deadline budget in seconds (real operation time + virtual backoff)
    #: after which retrying stops even if attempts remain.
    DEADLINE = 30.0

    def call(
        self,
        op: Callable[[], T],
        *,
        rng: Random,
        error_type: type[ReproError],
        describe: str,
        on_retry: Callable[[int, float, ReproError], Any] | None = None,
    ) -> tuple[T, float]:
        """Run ``op`` until it succeeds, retry budget allowing.

        ``on_retry(attempt, pause, error)`` fires before each retry (for
        event recording).  Returns ``(result, seconds)`` on success, where
        ``seconds`` is the real operation time plus the virtual backoff; raises
        ``error_type`` chained to the last failure when attempts or the
        deadline budget are exhausted.
        """
        start = time.perf_counter()
        backoff_total = 0.0
        delay = self.BASE_DELAY
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            try:
                result = op()
            except ReproError as error:
                pause = delay * (1.0 + self.JITTER * (2.0 * rng.random() - 1.0))
                elapsed = time.perf_counter() - start + backoff_total
                if attempt >= self.MAX_ATTEMPTS:
                    raise error_type(
                        f"{describe} failed after {attempt} attempts: {error}"
                    ) from error
                if elapsed + pause > self.DEADLINE:
                    raise error_type(
                        f"{describe} exceeded its {self.DEADLINE:.3f}s deadline "
                        f"budget after {attempt} attempts: {error}"
                    ) from error
                backoff_total += pause
                if on_retry is not None:
                    on_retry(attempt, pause, error)
                delay *= self.MULTIPLIER
            else:
                return result, time.perf_counter() - start + backoff_total
        raise AssertionError("unreachable: the loop returns or raises")


__all__ = ["RetryPolicy"]
