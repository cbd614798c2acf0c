"""The one way a simulation is launched from :mod:`repro.experiments`.

One typed :class:`RunSpec` describes a run by what it contains, and
:func:`run` executes it: one workload, one engine, plus one layer for each
field that is set -- a dynamic-world ``scenario`` (with optional
exact-parity probing), ``chaos`` fault injection, span tracing into
``out_dir``, or a replay through :class:`repro.service.DispatchService`
(``service_config``).  The layers compose, and a field means the same thing
whatever else is set.  Every run's numbers are its ``MetricsCollector``
(``RunResult.simulation.metrics``) under the ``METRICS`` field names; a
grid row is :func:`metric_row`, a projection onto some of them.
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from dataclasses import dataclass
from functools import partial
from collections.abc import Callable, Iterable
from typing import Any

from pathlib import Path

from ..config import ChaosConfig, ServiceConfig, SimulationConfig
from ..dispatch import make_dispatcher
from ..dispatch.base import Dispatcher
from ..exceptions import ConfigurationError, ScenarioError
from ..observability import tracing, write_run_artifacts
from ..resilience.degrade import ResilienceManager
from ..resilience.probes import exact_cost_failures
from ..scenarios.presets import make_chaos_config, make_scenario_workload
from ..scenarios.events import WorldView
from ..scenarios.refresh import make_refresh_policy
from ..scenarios.timeline import Scenario
from ..service.schemas import RideRequest
from ..service.server import DispatchService, ServiceResult
from ..simulation.engine import SimulationResult, Simulator
from ..simulation.metrics import METRICS, MetricsCollector, export_rows
from ..workloads.presets import Workload, make_workload


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One typed description of a harness run (the input of :func:`run`).

    A plain spec runs one algorithm over one workload (a prebuilt
    :class:`Workload` via ``workload=`` or a preset built from the size
    knobs).  ``scenario=``, ``parity_pairs=``, ``chaos=``, ``out_dir=`` and
    ``service_config=`` each add their layer to that run (see :func:`run`).
    """

    # -- workload shape -------------------------------------------------- #
    preset: str = "nyc"
    #: Request-count scale for preset-built workloads.
    scale: float = 0.08
    city_scale: float = 0.4
    num_requests: int | None = None
    num_vehicles: int | None = None
    #: Routing backend override (``None`` keeps the preset's or ``simulation_config``'s).
    backend: str | None = None
    #: Prebuilt workload; replaces everything above, so it excludes
    #: ``backend=`` / ``num_requests=`` / ``num_vehicles=`` and scenario names.
    workload: Workload | None = None
    # -- algorithm / simulation ------------------------------------------ #
    #: Dispatcher name; ``None`` picks ``SARD``, or ``pruneGDP`` for a
    #: ``chaos=`` run.
    algorithm: str | None = None
    dispatcher: Dispatcher | None = None
    simulation_config: SimulationConfig | None = None
    # -- dynamic world --------------------------------------------------- #
    #: Scenario name (builds the surge-modulated workload with it) or a
    #: prebuilt :class:`~repro.scenarios.timeline.Scenario`.
    scenario: str | Scenario | None = None
    #: How the oracle follows the scenario's network mutations (``None``:
    #: the scenario's own policy); meaningless without a scenario.
    refresh_policy: str | None = None
    #: Random pairs the exactness probe checks after every event burst.
    parity_pairs: int = 0
    # -- chaos ----------------------------------------------------------- #
    chaos: str | ChaosConfig | None = None
    # -- traced ---------------------------------------------------------- #
    out_dir: str | Path | None = None
    name: str = "traced_run"
    # -- service --------------------------------------------------------- #
    service_config: ServiceConfig | None = None

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.city_scale <= 0:
            raise ConfigurationError("scale and city_scale must be positive")
        if self.workload is not None and not isinstance(self.workload, Workload):
            raise ConfigurationError(
                "workload= takes a built Workload; preset names go in preset= "
                f"(got {self.workload!r})"
            )
        if self.parity_pairs < 0:
            raise ConfigurationError("parity_pairs must be non-negative")
        # What is left refuses a field the run would ignore.
        if self.refresh_policy is not None and self.scenario is None:
            raise ConfigurationError(
                "refresh_policy without a scenario has nothing to refresh; "
                "pass the scenario whose timeline mutates the network"
            )
        if self.parity_pairs and (self.scenario is None or self.chaos is not None):
            raise ConfigurationError(
                "parity_pairs probes a scenario's oracle after each event "
                "burst; it needs scenario= and no chaos= (whose faults the "
                "resilience layer verifies instead)"
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


@dataclass(frozen=True)
class RunResult:
    """What :func:`run` produced.

    ``simulation`` is always set (for a ``service_config=`` run it is the
    simulation nested in ``service``, the full
    :class:`~repro.service.ServiceResult`); ``artifacts`` maps artifact
    kinds to the paths an ``out_dir=`` run wrote.
    """

    spec: RunSpec
    simulation: SimulationResult
    artifacts: dict[str, Path] | None = None
    service: ServiceResult | None = None


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


# ---------------------------------------------------------------------- #
# the rows of every run
# ---------------------------------------------------------------------- #
def metric_row(
    fields: Iterable[str], metrics: MetricsCollector, **cell: Any
) -> dict[str, Any]:
    """The ``cell`` coordinates followed by ``fields`` read off ``metrics``."""
    return {**cell, **{field: getattr(metrics, field) for field in fields}}


def deterministic_summary(metrics: MetricsCollector) -> dict[str, float]:
    """``metrics.summary()`` without its wall-clock ``*_seconds`` keys.

    What remains must be bit-identical across two same-seed runs -- the
    reproducibility contract the chaos tests and the CI job assert.
    """
    return {
        key: value
        for key, value in metrics.summary().items()
        if not key.endswith("_seconds")
    }


# ---------------------------------------------------------------------- #
# the parity probe of scenario runs
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


# ---------------------------------------------------------------------- #
# the front door
# ---------------------------------------------------------------------- #
#: Summary keys pulled into the headline table of the traced-run report.
TRACED_RUN_HIGHLIGHTS = (
    "service_rate",
    "unified_cost",
    "dispatch_seconds",
    "dispatch_p95_seconds",
    "shortest_path_queries",
)


def run(spec: RunSpec) -> RunResult:
    """Execute one :class:`RunSpec` -- the harness's single front door.

    Every experiment, benchmark and CI job funnels through here.  The run
    is one workload and one engine; each set field adds its layer:

    * ``scenario`` -- the event timeline and refresh policy;
    * ``parity_pairs`` -- the exactness probe after every event burst;
    * ``chaos`` -- a :class:`~repro.resilience.degrade.ResilienceManager`
      (whose oracle the run queries and which verifies every accepted
      assignment) and ``pruneGDP`` as the default algorithm;
    * ``out_dir`` -- span tracing with sampled oracle queries around the
      run, and ``<name>.trace.jsonl`` / ``<name>.prom`` /
      ``<name>.report.md`` written there;
    * ``service_config`` -- the trace replayed through
      :class:`DispatchService` (assignments parity-exact with the batch
      run; the streamed events are in ``RunResult.service.events``).
    """
    workload, scenario = _build_workload(spec)
    config = spec.simulation_config or workload.simulation_config
    if spec.backend is not None:
        config = config.with_overrides(routing_backend=spec.backend)
    backend = config.routing_backend
    chaos = make_chaos_config(spec.chaos) if isinstance(spec.chaos, str) else spec.chaos
    manager = ResilienceManager(chaos=chaos) if chaos is not None else None
    oracle = (
        manager.make_oracle(workload.network, backend=backend)
        if manager is not None
        else workload.fresh_oracle(backend=backend)
    )
    default_algorithm = "pruneGDP" if manager is not None else "SARD"
    engine: dict[str, Any] = {
        "network": workload.network,
        "oracle": oracle,
        "vehicles": workload.fresh_vehicles(),
        "dispatcher": (
            spec.dispatcher or make_dispatcher(spec.algorithm or default_algorithm)
        ),
        "config": config,
        "resilience": manager,
    }
    context = {"bursts": 0}
    if scenario is not None:
        probe = _parity_probe(context, spec.parity_pairs) if spec.parity_pairs else None
        policy = make_refresh_policy(spec.refresh_policy, config=scenario.config)
        engine.update(
            timeline=scenario.make_timeline(on_applied=probe), refresh_policy=policy
        )

    execute: Callable[[], SimulationResult | ServiceResult]
    if spec.service_config is not None:
        service = DispatchService(service_config=spec.service_config, **engine)
        rides = (RideRequest.from_request(request) for request in workload.requests)
        execute = partial(service.serve, rides)
    else:
        execute = Simulator(
            requests=list(workload.requests), record_events=False, **engine
        ).run
    if spec.out_dir is None:
        outcome = execute()
    else:
        with tracing(oracle=oracle) as tracer:
            outcome = execute()
    served = outcome if isinstance(outcome, ServiceResult) else None
    result = outcome.simulation if isinstance(outcome, ServiceResult) else outcome
    if spec.parity_pairs and context["bursts"] == 0:
        raise ScenarioError(f"scenario {spec.scenario!r} applied no events")

    metrics = result.metrics
    artifacts = None
    if spec.out_dir is not None:
        latencies = {
            "dispatch.batch_seconds": (
                "Per-batch dispatch latency",
                [record.dispatch_seconds for record in metrics.batch_records],
            ),
            "oracle.query_seconds": (
                "Latency of each computed shortest-path query",
                [record.duration for record in tracer.records if record.name == "oracle.query"],
            ),
        }
        artifacts = write_run_artifacts(
            spec.out_dir,
            spec.name,
            title=(
                f"Traced run: {engine['dispatcher'].name} on {workload.name} "
                f"({metrics.total_requests} requests, "
                f"{len(engine['vehicles'])} vehicles, "
                f"{oracle.backend_name} oracle)"
            ),
            summary=metrics.summary(),
            tracer=tracer,
            rows=export_rows(METRICS, metrics),
            latencies=latencies,
            highlight_keys=TRACED_RUN_HIGHLIGHTS,
        )
    return RunResult(spec=spec, simulation=result, artifacts=artifacts, service=served)

