"""The one way a simulation is launched from :mod:`repro.experiments`.

One typed :class:`RunSpec` describes any kind of run -- a plain single
simulation, a dynamic-world scenario cell (with optional exact-parity
probing), a chaos cell under fault injection, a span-traced run with
observability artifacts, or a service-mode run through
:class:`repro.service.DispatchService` -- and :func:`run` executes it.
:func:`run_grid` runs a list of specs; :meth:`RunSpec.grid` builds the
scenario x backend x refresh-policy product.  Every mode goes through the
same workload builder and the same engine construction, so a field of the
spec means the same thing in all of them.  The figure sweeps of
:mod:`repro.experiments.figures` are grids of ``single`` specs.
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from pathlib import Path

from ..config import ChaosConfig, ServiceConfig, SimulationConfig
from ..dispatch import make_dispatcher
from ..dispatch.base import Dispatcher
from ..exceptions import ConfigurationError, ScenarioError
from ..observability import LATENCY_BUCKETS_S, tracing, write_run_artifacts
from ..resilience.degrade import ResilienceManager
from ..resilience.probes import exact_cost_failures
from ..scenarios.presets import make_chaos_config, make_scenario_workload
from ..scenarios.events import WorldView
from ..scenarios.refresh import make_refresh_policy
from ..scenarios.timeline import Scenario
from ..service.schemas import RideRequest
from ..service.server import DispatchService, ServiceResult
from ..simulation.engine import SimulationResult, Simulator
from ..workloads.presets import Workload, make_workload

#: Run kinds the front door understands.
RUN_MODES = ("single", "scenario", "chaos", "traced", "service")

#: RunSpec fields that only make sense for specific modes; validation
#: rejects stray combinations so a typo'd spec fails loudly, not silently.
_MODE_ONLY_FIELDS: dict[str, tuple[str, ...]] = {
    "parity_pairs": ("scenario",),
    "chaos": ("chaos",),
    "out_dir": ("traced",),
    "service_config": ("service",),
}


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One typed description of a harness run (the input of :func:`run`).

    ``mode`` selects the run kind:

    ``single``
        One algorithm over one workload (a prebuilt :class:`Workload` via
        ``workload=`` or a preset built from the size knobs).
    ``scenario``
        One (``scenario``, ``backend``, ``refresh_policy``) cell of the
        dynamic-world grid, with optional exact-parity probing.
    ``chaos``
        The same cell wrapped in fault injection + the resilience ladder.
    ``traced``
        A span-traced run writing trace/Prometheus/markdown artifacts to
        ``out_dir``.
    ``service``
        The workload's trace replayed through
        :class:`repro.service.DispatchService` (assignments are
        parity-exact with mode ``single`` on the same workload).
    """

    mode: str = "single"
    # -- workload shape -------------------------------------------------- #
    preset: str = "nyc"
    #: Request-count scale for preset-built workloads.
    scale: float = 0.08
    city_scale: float = 0.4
    num_requests: int | None = None
    num_vehicles: int | None = None
    #: Routing backend override (``None`` keeps the preset's).
    backend: str | None = None
    #: Prebuilt workload; replaces everything above, so it excludes
    #: ``backend=`` / ``num_requests=`` / ``num_vehicles=`` and scenario names.
    workload: Workload | None = None
    # -- algorithm / simulation ------------------------------------------ #
    #: Dispatcher name; ``None`` picks the mode's default (``SARD``, or
    #: ``pruneGDP`` for chaos runs).
    algorithm: str | None = None
    dispatcher: Dispatcher | None = None
    simulation_config: SimulationConfig | None = None
    # -- dynamic world --------------------------------------------------- #
    #: Scenario name (required by modes ``scenario`` / ``chaos``; builds the
    #: surge-modulated workload with it) or a prebuilt
    #: :class:`~repro.scenarios.timeline.Scenario`.
    scenario: str | Scenario | None = None
    #: How the oracle follows the scenario's network mutations (``None``:
    #: the scenario's own policy); meaningless without a scenario.
    refresh_policy: str | None = None
    parity_pairs: int = 0
    # -- chaos ----------------------------------------------------------- #
    chaos: str | ChaosConfig | None = None
    # -- traced ---------------------------------------------------------- #
    out_dir: str | Path | None = None
    name: str = "traced_run"
    # -- service --------------------------------------------------------- #
    service_config: ServiceConfig | None = None

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ConfigurationError(
                f"mode must be one of {RUN_MODES} (got {self.mode!r})"
            )
        if self.scale <= 0 or self.city_scale <= 0:
            raise ConfigurationError("scale and city_scale must be positive")
        if self.workload is not None and not isinstance(self.workload, Workload):
            raise ConfigurationError(
                "workload= takes a built Workload; preset names go in preset= "
                f"(got {self.workload!r})"
            )
        if self.parity_pairs < 0:
            raise ConfigurationError("parity_pairs must be non-negative")
        for field_name, modes in _MODE_ONLY_FIELDS.items():
            value = getattr(self, field_name)
            if value not in (None, 0) and self.mode not in modes:
                raise ConfigurationError(
                    f"{field_name}= only applies to mode(s) {modes} "
                    f"(spec has mode {self.mode!r})"
                )
        if self.mode in ("scenario", "chaos"):
            if not isinstance(self.scenario, str):
                raise ConfigurationError(
                    f"mode {self.mode!r} needs a scenario *name* "
                    f"(got {self.scenario!r})"
                )
            if not self.backend or not self.refresh_policy:
                raise ConfigurationError(
                    f"mode {self.mode!r} needs backend= and refresh_policy="
                )
        if self.mode == "traced" and self.out_dir is None:
            raise ConfigurationError("mode 'traced' needs out_dir=")
        if self.refresh_policy is not None and self.scenario is None:
            raise ConfigurationError(
                "refresh_policy without a scenario has nothing to refresh; "
                "pass the scenario whose timeline mutates the network"
            )
        if self.workload is not None:
            # A built workload already fixed its size, backend and trace; a
            # scenario *name* would have to regenerate the trace under its
            # demand surges (pass a built Scenario next to workload=).
            stray = [
                name
                for name in ("backend", "num_requests", "num_vehicles")
                if getattr(self, name) is not None
            ] + (["scenario"] if isinstance(self.scenario, str) else [])
            if stray:
                raise ConfigurationError(
                    f"workload= is already built; {', '.join(stray)}= would "
                    "be ignored"
                )

    def with_overrides(self, **overrides: Any) -> "RunSpec":
        """Return a copy of this spec with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def grid(
        cls,
        *,
        scenarios: Sequence[str],
        backends: Sequence[str],
        policies: Sequence[str],
        **common: Any,
    ) -> list["RunSpec"]:
        """Specs for the scenario x backend x refresh-policy product.

        ``common`` (including ``mode="scenario"`` or ``mode="chaos"``) is
        applied to every cell; feed the result to :func:`run_grid`.
        """
        return [
            cls(
                scenario=scenario,
                backend=backend,
                refresh_policy=policy,
                **common,
            )
            for scenario in scenarios
            for backend in backends
            for policy in policies
        ]


@dataclass(frozen=True)
class RunResult:
    """What :func:`run` produced; which fields are set depends on the mode.

    ``simulation`` is set for every mode except ``service`` (which carries
    the full :class:`~repro.service.ServiceResult` in ``service``, with the
    simulation result nested inside it); ``row`` is the flat metric row of
    grid cells; ``artifacts`` maps artifact kinds to written paths for
    traced runs.
    """

    spec: RunSpec
    simulation: SimulationResult | None = None
    row: dict[str, Any] | None = None
    artifacts: dict[str, Path] | None = None
    service: ServiceResult | None = None


# ---------------------------------------------------------------------- #
# what every mode shares: the workload and the engine built over it
# ---------------------------------------------------------------------- #
def _build_workload(spec: RunSpec) -> tuple[Workload, Scenario | None]:
    """The workload a spec describes and the scenario that mutates it, if any.

    A scenario *name* builds its own city first, because the scenario's zones,
    corridors and demand surges are derived from the network the requests are
    then generated on (which is why ``RunSpec`` refuses one next to a built
    ``workload=``).
    """
    shape: dict[str, Any] = {
        "scale": spec.scale,
        "city_scale": spec.city_scale,
        "workload_overrides": {
            name: getattr(spec, name)
            for name in ("num_requests", "num_vehicles")
            if getattr(spec, name) is not None
        },
        "simulation_overrides": (
            {"routing_backend": spec.backend} if spec.backend else None
        ),
    }
    if isinstance(spec.scenario, str):
        return make_scenario_workload(spec.preset, spec.scenario, **shape)
    return spec.workload or make_workload(spec.preset, **shape), spec.scenario


def _engine_arguments(
    spec: RunSpec,
    workload: Workload,
    scenario: Scenario | None,
    *,
    on_applied: Callable[[WorldView], None] | None = None,
    resilience: ResilienceManager | None = None,
) -> dict[str, Any]:
    """The constructor arguments :class:`Simulator` and
    :class:`DispatchService` have in common, fresh for one run.

    With a ``resilience`` manager the oracle is the manager's (a chaos oracle
    when faults are configured); otherwise a clean one over the workload's
    network.  A scenario contributes a fresh event timeline and the refresh
    policy the oracle follows the mutating network under (the scenario's own
    policy when the spec names none).
    """
    config = spec.simulation_config or workload.simulation_config
    backend = config.routing_backend
    default_algorithm = "pruneGDP" if spec.mode == "chaos" else "SARD"
    arguments: dict[str, Any] = {
        "network": workload.network,
        "oracle": (
            resilience.make_oracle(workload.network, backend=backend)
            if resilience is not None
            else workload.fresh_oracle(backend=backend)
        ),
        "vehicles": workload.fresh_vehicles(),
        "dispatcher": (
            spec.dispatcher or make_dispatcher(spec.algorithm or default_algorithm)
        ),
        "config": config,
        "resilience": resilience,
    }
    if scenario is not None:
        arguments["timeline"] = scenario.make_timeline(on_applied=on_applied)
        arguments["refresh_policy"] = make_refresh_policy(
            spec.refresh_policy, config=scenario.config
        )
    return arguments


def _make_simulator(
    spec: RunSpec, workload: Workload, scenario: Scenario | None, **options: Any
) -> Simulator:
    """A batch simulator over the whole trace (``options``: see
    :func:`_engine_arguments`)."""
    return Simulator(
        requests=list(workload.requests),
        record_events=False,
        **_engine_arguments(spec, workload, scenario, **options),
    )


def _single_impl(spec: RunSpec) -> RunResult:
    """One algorithm over one workload (optionally under a scenario)."""
    simulator = _make_simulator(spec, *_build_workload(spec))
    return RunResult(spec=spec, simulation=simulator.run())


def _service_impl(spec: RunSpec) -> RunResult:
    """Replay the workload's trace through the dispatch service.

    The service drives the simulator's stepwise interface, so the returned
    assignments are parity-exact with mode ``single`` over the same
    workload; the events are the service's streamed ones
    (``RunResult.service.events``).
    """
    workload, scenario = _build_workload(spec)
    service = DispatchService(
        service_config=spec.service_config,
        **_engine_arguments(spec, workload, scenario),
    )
    result = service.serve(
        RideRequest.from_request(request) for request in workload.requests
    )
    return RunResult(
        spec=spec, simulation=result.simulation, service=result
    )


def run(spec: RunSpec) -> RunResult:
    """Execute one :class:`RunSpec` -- the harness's single front door.

    Every experiment, benchmark and CI job funnels through here, so the
    five run kinds stay behaviourally consistent (one workload builder,
    one simulator, one service).
    """
    impls: dict[str, Callable[[RunSpec], RunResult]] = {
        "single": _single_impl,
        "scenario": _scenario_impl,
        "chaos": _chaos_impl,
        "traced": _traced_impl,
        "service": _service_impl,
    }
    return impls[spec.mode](spec)


def run_grid(specs: Iterable[RunSpec]) -> list[RunResult]:
    """Run every spec in order (see :meth:`RunSpec.grid`)."""
    return [run(spec) for spec in specs]


# ---------------------------------------------------------------------- #
# traced runs (observability artifacts: JSONL trace, Prometheus, markdown)
# ---------------------------------------------------------------------- #
#: Summary keys pulled into the headline table of the traced-run report.
TRACED_RUN_HIGHLIGHTS = (
    "service_rate",
    "unified_cost",
    "dispatch_seconds",
    "dispatch_p95_seconds",
    "shortest_path_queries",
)


def _traced_impl(spec: RunSpec) -> RunResult:
    """Run one workload with span tracing on and write all three exports.

    Sampled query tracing attaches to the oracle the simulator actually
    queries.  Emits ``<name>.trace.jsonl`` / ``<name>.prom`` /
    ``<name>.report.md`` into ``spec.out_dir`` (the CI scenario job uploads
    them as artifacts).
    """
    assert spec.out_dir is not None  # enforced by RunSpec validation
    workload, scenario = _build_workload(spec)
    simulator = _make_simulator(spec, workload, scenario)
    oracle = simulator.oracle
    with tracing(oracle=oracle) as tracer:
        result = simulator.run()
    metrics = result.metrics
    registry = metrics.as_registry()
    # Fold the sampled oracle query latencies from the trace into the
    # registry so the Prometheus snapshot carries the full picture.
    query_latency = registry.histogram(
        "oracle.query_seconds",
        "Sampled shortest-path query latency",
        buckets=LATENCY_BUCKETS_S,
    )
    for record in tracer.records:
        if record.name == "oracle.query":
            query_latency.observe(record.duration)
    paths = write_run_artifacts(
        spec.out_dir,
        spec.name,
        title=(
            f"Traced run: {simulator.dispatcher.name} on {workload.name} "
            f"({metrics.total_requests} requests, "
            f"{len(simulator.vehicles)} vehicles, "
            f"{oracle.backend_name} oracle)"
        ),
        summary=metrics.summary(),
        tracer=tracer,
        registry=registry,
        highlight_keys=TRACED_RUN_HIGHLIGHTS,
    )
    return RunResult(spec=spec, simulation=result, artifacts=paths)


# ---------------------------------------------------------------------- #
# dynamic-world scenario grid (shared by benchmarks, experiments and CI)
# ---------------------------------------------------------------------- #
#: Seed of the parity probe's pair sampler.
PARITY_SEED = 99


def _parity_probe(context: dict[str, int], pairs: int) -> Callable[[WorldView], None]:
    """Build the after-every-burst exactness probe for a scenario run.

    The probe compares the scenario oracle against a fresh Dijkstra over the
    *mutated* network on random pairs (see
    :func:`~repro.resilience.probes.exact_cost_failures`) and checks that the
    path of every reachable pair only uses edges that currently exist; any
    divergence raises :class:`ScenarioError` (not ``assert``, so the gate
    also holds under ``python -O``).
    """
    rng = random.Random(PARITY_SEED)

    def probe(world: WorldView) -> None:
        context["bursts"] += 1
        network, oracle = world.network, world.oracle
        nodes = list(network.nodes())

        def check_path(u: int, v: int, cost: float) -> None:
            if math.isinf(cost):
                return
            path = oracle.path(u, v)
            for a, b in zip(path, path[1:]):
                if not network.has_edge(a, b):
                    raise ScenarioError(
                        f"path({u}, {v}) uses the missing edge {a}->{b}"
                    )

        draws = (rng.sample(nodes, 2) for _ in range(pairs))
        for failure in exact_cost_failures(network, oracle, draws, on_exact=check_path):
            raise ScenarioError(
                f"parity violation: cost({failure.source}, {failure.target}) = "
                f"{failure.got} on the scenario oracle vs {failure.want} for "
                "fresh Dijkstra"
            )

    return probe


def _scenario_impl(spec: RunSpec) -> RunResult:
    """Run one (scenario, backend, refresh-policy) cell of the grid.

    The row carries the refresh-overhead columns (rebuilds, repair work,
    fallback queries, stale time) next to the dispatch metrics.  With
    ``parity_pairs > 0`` an exactness probe runs after every event burst
    (once the refresh policy has made the oracle consistent) and raises on
    any divergence from a fresh Dijkstra over the mutated network.
    """
    workload, scenario = _build_workload(spec)
    context = {"bursts": 0}
    on_applied = (
        _parity_probe(context, spec.parity_pairs)
        if spec.parity_pairs
        else None
    )
    result = _make_simulator(
        spec, workload, scenario, on_applied=on_applied
    ).run()
    metrics = result.metrics
    if spec.parity_pairs and context["bursts"] == 0:
        raise ScenarioError(f"scenario {spec.scenario!r} applied no events")
    row = {
        "scenario": spec.scenario,
        "backend": spec.backend,
        "policy": spec.refresh_policy,
        "events": metrics.scenario_events,
        "rebuilds": metrics.oracle_rebuilds,
        "rebuild_ms": metrics.oracle_rebuild_seconds * 1e3,
        "repairs": metrics.oracle_repairs,
        "repair_ms": metrics.oracle_repair_seconds * 1e3,
        "snapshot_hits": metrics.oracle_snapshot_hits,
        "recontracted": metrics.oracle_nodes_recontracted,
        "refresh_ms": (
            metrics.oracle_rebuild_seconds + metrics.oracle_repair_seconds
        ) * 1e3,
        "fallback_q": metrics.oracle_fallback_queries,
        "stale_ms": metrics.oracle_stale_seconds * 1e3,
        "service_rate": metrics.service_rate,
        "unified_cost": metrics.unified_cost,
        "dispatch_s": metrics.dispatch_seconds,
    }
    return RunResult(spec=spec, simulation=result, row=row)


# ---------------------------------------------------------------------- #
# chaos grid (resilience layer under fault injection)
# ---------------------------------------------------------------------- #
def _chaos_impl(spec: RunSpec) -> RunResult:
    """Run one (scenario, backend, refresh-policy) cell under fault injection.

    The run is wrapped in a :class:`~repro.resilience.degrade.ResilienceManager`
    with the ``chaos`` preset's fault rates; it must complete without an
    unhandled exception and -- because the manager verifies every accepted
    assignment -- with every leg cost exact against fresh Dijkstra.
    The row carries the resilience counters next to the dispatch metrics.
    Deterministic: two identical specs inject the identical fault sequence
    and produce identical non-timing metrics (see
    :func:`deterministic_summary`).
    """
    chaos = spec.chaos if spec.chaos is not None else "flaky_oracle"
    manager = ResilienceManager(
        chaos=make_chaos_config(chaos) if isinstance(chaos, str) else chaos
    )
    workload, scenario = _build_workload(spec)
    result = _make_simulator(
        spec, workload, scenario, resilience=manager
    ).run()
    metrics = result.metrics
    row = {
        "scenario": spec.scenario,
        "backend": spec.backend,
        "policy": spec.refresh_policy,
        "events": metrics.scenario_events,
        "faults": metrics.faults_injected,
        "retries": metrics.oracle_retries,
        "breaker_trips": metrics.breaker_trips,
        "degraded": metrics.degraded_batches,
        "overruns": metrics.batch_overruns,
        "probe_failures": metrics.probe_failures,
        "self_heals": metrics.self_heals,
        "recovery_ms": metrics.recovery_seconds * 1e3,
        "rebuilds": metrics.oracle_rebuilds,
        "repairs": metrics.oracle_repairs,
        "fallback_q": metrics.oracle_fallback_queries,
        "service_rate": metrics.service_rate,
        "unified_cost": metrics.unified_cost,
        "dispatch_s": metrics.dispatch_seconds,
    }
    return RunResult(spec=spec, simulation=result, row=row)


def deterministic_summary(row: dict) -> dict:
    """Strip the timing-dependent columns from a chaos (or scenario) row.

    What remains must be bit-identical across two same-seed runs -- the
    reproducibility contract the chaos tests and the CI job assert.
    """
    timing = {"dispatch_s", "wall_clock_s"}
    return {
        key: value
        for key, value in row.items()
        if key not in timing and not key.endswith("_ms")
    }
