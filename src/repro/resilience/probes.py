"""Sampled invariant probes: oracle costs vs a fresh Dijkstra reference.

Each batch, ``k`` random node pairs are costed through the serving oracle
and through a cache-less Dijkstra oracle compiled from the *current* network
(always exact, whatever state the preprocessed structures are in).  Any
mismatch means the oracle is silently wrong -- a corrupted snapshot, a buggy
repair splice -- and triggers the self-healing rung of the degradation
ladder.  The probe pair sampler is seeded, so two runs with the same
configuration probe the same pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle


@dataclass(frozen=True)
class ProbeFailure:
    """One probe pair whose oracle cost deviated from fresh Dijkstra."""

    source: int
    target: int
    got: float
    want: float


class InvariantProbe:
    """Seeded sampler comparing oracle costs against a Dijkstra reference."""

    #: Seed of the pair sampler (the retry jitter stream derives from it too).
    SEED = 23
    #: Relative deviation from fresh Dijkstra that counts as a failure.
    TOLERANCE = 1e-6

    def __init__(self, *, pairs: int = 4) -> None:
        self.pairs = max(int(pairs), 0)
        self.checks = 0
        self.reset()

    def reset(self) -> None:
        """Rewind the pair sampler to the seed state (one stream per run)."""
        self._rng = Random(f"{self.SEED}:probe")
        self.checks = 0

    def check(
        self, network: RoadNetwork, oracle: DistanceOracle
    ) -> list[ProbeFailure]:
        """Probe ``pairs`` random node pairs; return the mismatches.

        The reference oracle is rebuilt from the current network on every
        check: probing must stay exact even while the serving oracle's
        preprocessed structures are dirty or corrupted.
        """
        if self.pairs == 0:
            return []
        nodes = sorted(network.nodes())
        if len(nodes) < 2:
            return []
        reference = DistanceOracle(network, cache_size=0, backend="dijkstra")
        failures: list[ProbeFailure] = []
        tolerance = self.TOLERANCE
        for _ in range(self.pairs):
            source, target = self._rng.sample(nodes, 2)
            self.checks += 1
            want = reference.cost(source, target)
            got = oracle.cost(source, target)
            if math.isinf(want) and math.isinf(got):
                continue
            if math.isinf(want) or math.isinf(got):
                failures.append(ProbeFailure(source, target, got, want))
                continue
            if abs(got - want) > tolerance * max(1.0, abs(want)):
                failures.append(ProbeFailure(source, target, got, want))
        return failures


__all__ = ["InvariantProbe", "ProbeFailure"]
