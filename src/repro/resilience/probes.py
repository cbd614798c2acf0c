"""Serving-oracle costs against a fresh Dijkstra reference.

:func:`exact_cost_failures` is the one check behind every exactness gate:
it costs node pairs through the serving oracle and through a cache-less
Dijkstra oracle compiled from the *current* network (always exact, whatever
state the preprocessed structures are in) and reports the pairs whose costs
differ.  Every cost is a sum of grid weights (:mod:`repro.numeric`), so the
backends agree to the bit and the test is ``!=``.  Two callers share it: the
resilience manager's invariant probe (seeded random pairs before every
dispatch and after the run's last refresh) and the scenario harness's
parity probe (random pairs after every event burst).

Any mismatch means the oracle is silently wrong -- a corrupted snapshot, a
buggy refresh -- and, for the probe, triggers the self-healing rung of
the degradation ladder.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle


@dataclass(frozen=True)
class ProbeFailure:
    """One pair whose serving-oracle cost deviated from fresh Dijkstra."""

    source: int
    target: int
    got: float
    want: float


def exact_cost_failures(
    network: RoadNetwork,
    oracle: DistanceOracle,
    pairs: Iterable[Sequence[int]],
    *,
    on_exact: Callable[[int, int, float], None] | None = None,
) -> Iterator[ProbeFailure]:
    """Yield every ``(source, target)`` of ``pairs`` whose ``oracle.cost``
    differs from a fresh cache-less Dijkstra over ``network``.

    Lazy and in order: each pair costs one ``oracle.cost`` call, made when
    the caller asks for the next failure, so a caller that stops at the first
    failure makes no call past it.  The serving oracle sees exactly the calls
    of a plain loop over ``pairs`` -- which matters, because a
    :class:`~repro.resilience.faults.ChaosOracle` draws a latency spike per
    call and the LRU sees every one.  ``on_exact(source, target, cost)`` runs
    right after each pair that passed, before the next pair is costed.
    """
    reference = DistanceOracle(network, cache_size=0, backend="dijkstra")
    for source, target in pairs:
        want = reference.cost(source, target)
        got = oracle.cost(source, target)
        if got != want:
            yield ProbeFailure(source, target, got, want)
        elif on_exact is not None:
            on_exact(source, target, got)


__all__ = ["ProbeFailure", "exact_cost_failures"]
