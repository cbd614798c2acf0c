"""Seeded fault injection for the distance oracle.

:class:`FaultInjector` turns a :class:`~repro.config.ChaosConfig` into a
deterministic fault sequence: every injection decision is drawn from RNG
streams seeded by strings derived from ``config.seed`` (CPython seeds string
inputs through SHA-512, so the streams are reproducible across processes and
platforms).  Faults and latency spikes draw from *separate* streams, so
enabling spikes never shifts which rebuild/repair calls fail.

:class:`ChaosOracle` is a :class:`~repro.network.shortest_path.DistanceOracle`
whose refresh and query seams consult the injector:

* ``rebuild`` / ``repair`` raise :class:`~repro.exceptions.InjectedFaultError`
  *before* doing any work when the injector fires -- modelling a backend
  build that crashes, while exercising the oracle's exception-safety (the
  previous structures keep serving).
* A *successful* refresh may leave the oracle silently corrupted: query
  results are scaled by ``corruption_factor`` (emulating a snapshot whose
  weights were perturbed) until :meth:`ChaosOracle.heal` clears it.  The
  scaling is applied at the query layer on every finite nonzero cost and
  rounded up to the time grid (:mod:`repro.numeric`) like a weight, so any
  invariant probe pair of more than a few grid steps detects it.
* ``top_speed`` is divided by the factor, so it still bounds the costs.
* ``cost`` draws latency spikes, accumulated as *virtual*
  seconds the simulator charges against its per-batch time budget.
"""

from __future__ import annotations

import math
from typing import Any
from random import Random

from ..config import ChaosConfig
from ..exceptions import InjectedFaultError
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle, RepairReport
from ..numeric import to_grid


class FaultInjector:
    """Deterministic per-operation fault decisions from a seeded config."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.reset()

    def reset(self) -> None:
        """Rewind every stream and counter to the configured seed state."""
        seed = self.config.seed
        self._fault_rng = Random(f"{seed}:faults")
        self._spike_rng = Random(f"{seed}:spikes")
        #: ``(operation, op_index)`` per injected refresh fault, in order --
        #: the chaos determinism contract is that two runs with the same
        #: config produce identical logs.
        self.fault_log: list[tuple[str, int]] = []
        self.faults_injected = 0
        self._op_index = 0
        #: Virtual latency accrued since the last drain, in seconds.
        self.pending_latency = 0.0
        self.total_latency = 0.0

    # ------------------------------------------------------------------ #
    def _draw(self, kind: str, rate: float) -> bool:
        self._op_index += 1
        if self._fault_rng.random() >= rate:
            return False
        self.fault_log.append((kind, self._op_index))
        self.faults_injected += 1
        return True

    def fail_rebuild(self) -> bool:
        """Decide whether the next rebuild raises."""
        return self._draw("rebuild", self.config.rebuild_failure_rate)

    def fail_repair(self) -> bool:
        """Decide whether the next repair raises."""
        return self._draw("repair", self.config.repair_failure_rate)

    def corrupt_refresh(self) -> bool:
        """Decide whether a successful refresh leaves silent corruption."""
        return self._draw("corruption", self.config.corruption_rate)

    def query_spike(self) -> float:
        """Virtual latency of the next query (0.0 when no spike fires)."""
        rate = self.config.query_spike_rate
        if rate <= 0:
            return 0.0
        if self._spike_rng.random() >= rate:
            return 0.0
        seconds = self.config.spike_seconds
        self.faults_injected += 1
        self.pending_latency += seconds
        self.total_latency += seconds
        return seconds

    def drain_latency(self) -> float:
        """Return and clear the virtual latency accrued since the last drain."""
        seconds = self.pending_latency
        self.pending_latency = 0.0
        return seconds


class ChaosOracle(DistanceOracle):
    """Distance oracle whose refresh/query seams inject configured faults.

    With a never-firing injector (all rates zero) this is behaviourally
    identical to a plain :class:`DistanceOracle`.  The internal pair cache
    always stores *exact* costs; corruption is applied to returned values
    only, so :meth:`heal` restores exactness instantly without flushing.
    """

    def __init__(
        self, network: RoadNetwork, *, injector: FaultInjector, **kwargs: Any
    ) -> None:
        super().__init__(network, **kwargs)
        self.injector = injector
        #: Multiplier applied to query results while corrupted (``None`` =
        #: healthy).
        self._corruption: float | None = None

    @property
    def corrupted(self) -> bool:
        """True while query results are being silently perturbed."""
        return self._corruption is not None

    def heal(self) -> None:
        """Clear injected corruption (the self-healing rung calls this)."""
        self._set_corruption(None)

    def _set_corruption(self, scale: float | None) -> None:
        if scale != self._corruption:
            self._corruption = scale
            self.generation += 1

    # ------------------------------------------------------------------ #
    # refresh seams
    # ------------------------------------------------------------------ #
    def rebuild(self) -> float:
        injector = self.injector
        if injector.fail_rebuild():
            raise InjectedFaultError("injected fault: backend rebuild crashed")
        seconds = super().rebuild()
        if injector.corrupt_refresh():
            self._set_corruption(injector.config.corruption_factor)
        return seconds

    def repair(self) -> RepairReport:
        injector = self.injector
        if injector.fail_repair():
            raise InjectedFaultError("injected fault: repair crashed")
        report = super().repair()
        if report.mode != "noop" and injector.corrupt_refresh():
            self._set_corruption(injector.config.corruption_factor)
        return report

    # ------------------------------------------------------------------ #
    # query seams
    # ------------------------------------------------------------------ #
    def top_speed(self) -> float:
        return super().top_speed() / (self._corruption or 1.0)

    def cost(self, source: int, target: int) -> float:
        self.injector.query_spike()
        value = super().cost(source, target)
        scale = self._corruption
        if scale is not None and value > 0.0 and math.isfinite(value):
            return to_grid(value * scale, up=True)
        return value


__all__ = ["ChaosOracle", "FaultInjector"]
