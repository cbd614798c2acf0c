"""Serving-oracle costs against a fresh Dijkstra reference.

:func:`exact_cost_failures` is the one check behind every exactness gate:
it costs node pairs through the serving oracle and through a cache-less
Dijkstra oracle compiled from the *current* network (always exact, whatever
state the preprocessed structures are in) and reports the pairs that are
not :func:`~repro.numeric.costs_close`.  Three callers share it: the
:class:`InvariantProbe` (seeded random pairs before every dispatch), the
resilience manager's assignment verification (every accepted leg) and the
scenario harness's parity probe (random pairs after every event burst).

Any mismatch means the oracle is silently wrong -- a corrupted snapshot, a
buggy refresh -- and, for the probe, triggers the self-healing rung of
the degradation ladder.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from random import Random

from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..numeric import costs_close


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
    is not close to a fresh cache-less Dijkstra over ``network``.

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
        if not costs_close(got, want):
            yield ProbeFailure(source, target, got, want)
        elif on_exact is not None:
            on_exact(source, target, got)


class InvariantProbe:
    """Seeded pair sampler checking the serving oracle before every dispatch."""

    #: Seed of the pair sampler (the retry jitter stream derives from it too).
    SEED = 23
    #: Random node pairs probed per check.
    PAIRS = 4

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Rewind the pair sampler to the seed state (one stream per run)."""
        self._rng = Random(f"{self.SEED}:probe")

    def check(
        self, network: RoadNetwork, oracle: DistanceOracle
    ) -> list[ProbeFailure]:
        """Probe :attr:`PAIRS` random node pairs; return the mismatches.

        The reference is compiled from the current network on every check:
        probing must stay exact even while the serving oracle's preprocessed
        structures are dirty or corrupted.
        """
        nodes = sorted(network.nodes())
        if len(nodes) < 2:
            return []
        pairs = [self._rng.sample(nodes, 2) for _ in range(self.PAIRS)]
        return list(exact_cost_failures(network, oracle, pairs))


__all__ = ["InvariantProbe", "ProbeFailure", "exact_cost_failures"]
