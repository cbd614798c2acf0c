"""The paper's artefacts (Figures 8-17, Tables V-VI, studies) in paper units.

Every function builds scaled-down instances of the paper's experiments; a
sweep, a figure and the ablation return rows, as scenario and chaos runs do
(:func:`~repro.experiments.harness.metric_row`).  The corresponding
benchmark module prints the same rows/series the paper reports; absolute
values differ (Python simulator versus the authors' C++ testbed) but the
comparison shape is preserved.

Sweep values and defaults are stated in the paper's units (100K requests,
3K vehicles); an :class:`InstanceScale` says how far below them a run is and
:func:`paper_workload` is the only place that applies it.  A sweep is a grid
of plain :class:`~repro.experiments.harness.RunSpec` cells: one workload
per swept value, shared by every algorithm.

The paper's parameter grids are exposed as ``PAPER_*`` constants; benchmark
modules typically pass a reduced subset to keep wall-clock time reasonable.
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from dataclasses import dataclass, replace
from collections.abc import Iterable, Sequence
from typing import Any

from ..dispatch.sard import SARDDispatcher
from ..exceptions import ConfigurationError
from ..insertion.linear_insertion import insert_sequence
from ..model.schedule import Schedule, Waypoint, WaypointKind
from ..model.vehicle import RouteState
from ..shareability.angle_pruning import expected_sharing_probability, fit_lognormal
from ..shareability.builder import DynamicShareabilityGraphBuilder
from ..shareability.graph import ShareabilityGraph
from ..workloads.presets import Workload, make_workload
from .harness import RunSpec, metric_row, run

# --------------------------------------------------------------------------- #
# the paper's parameter grids (Tables III and IV)
# --------------------------------------------------------------------------- #
PAPER_NUM_REQUESTS = (10_000, 50_000, 100_000, 150_000, 200_000, 250_000)
PAPER_NUM_VEHICLES = (1_000, 2_000, 3_000, 4_000, 5_000)
PAPER_CAPACITIES = (2, 3, 4, 5, 6)
PAPER_GAMMAS = (1.2, 1.3, 1.5, 1.8, 2.0)
PAPER_PENALTIES = (2, 5, 10, 20, 30)
PAPER_BATCH_PERIODS = (1, 3, 5, 7, 9)
PAPER_CAPACITY_SIGMAS = (0.0, 0.5, 1.0, 1.5, 2.0)

PAPER_CAINIAO_NUM_REQUESTS = (50_000, 75_000, 100_000, 125_000, 150_000)
PAPER_CAINIAO_NUM_VEHICLES = (3_000, 3_500, 4_000, 4_500, 5_000)
PAPER_CAINIAO_GAMMAS = (1.8, 1.9, 2.0, 2.1, 2.2)
PAPER_CAINIAO_BATCH_PERIODS = (3, 4, 5, 6, 7)

#: Default algorithm line-up of the paper's main figures.
DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "pruneGDP",
    "TicketAssign+",
    "DARM+DPRS",
    "RTV",
    "GAS",
    "SARD",
)
#: Batch-mode algorithms only (Figure 13 varies the batching period).
BATCH_ALGORITHMS = ("RTV", "GAS", "SARD")
#: The paper omits DARM+DPRS on Cainiao (insufficient training data).
CAINIAO_ALGORITHMS = ("pruneGDP", "TicketAssign+", "RTV", "GAS", "SARD")

#: The paper's default request / fleet sizes (Tables III and IV).
PAPER_DEFAULT_REQUESTS = {"chd": 100_000, "nyc": 100_000, "cainiao": 100_000}
PAPER_DEFAULT_VEHICLES = {"chd": 3_000, "nyc": 3_000, "cainiao": 4_000}

#: Sweep parameters that change the simulation configuration.
_SIMULATION_PARAMETERS = {
    "gamma",
    "capacity",
    "penalty_coefficient",
    "batch_period",
    "angle_threshold",
}


# --------------------------------------------------------------------------- #
# instance size: paper units -> laptop scale
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InstanceScale:
    """How far below the paper's instance sizes an experiment runs."""

    #: Fraction of the paper's request count a value is scaled by (0.0025
    #: turns the paper's default 100K requests into 250).
    request_fraction: float = 0.0025
    #: Fraction of the paper's fleet size (0.04 turns 3K vehicles into 120).
    vehicle_fraction: float = 0.04
    city_scale: float = 0.7
    #: Routing backend forced on every workload (``None`` keeps each
    #: preset's ``SimulationConfig.routing_backend``).
    routing_backend: str | None = None

    def __post_init__(self) -> None:
        if min(self.request_fraction, self.vehicle_fraction, self.city_scale) <= 0:
            raise ConfigurationError(
                "request_fraction, vehicle_fraction and city_scale must be positive"
            )


def paper_workload(
    preset: str,
    scale: InstanceScale = InstanceScale(),
    *,
    parameter: str | None = None,
    value: float = 0.0,
) -> Workload:
    """The preset's instance at the paper's default sizes, scaled down.

    ``parameter`` = ``value`` (in paper units) replaces one default: a
    simulation knob (``gamma``, ``capacity``, ``penalty_coefficient``,
    ``batch_period``, ``angle_threshold``) or a workload knob
    (``num_requests``, ``num_vehicles``, ``capacity_sigma``).
    """
    paper_sizes: dict[str, float] = {
        "num_requests": PAPER_DEFAULT_REQUESTS.get(preset.lower(), 100_000),
        "num_vehicles": PAPER_DEFAULT_VEHICLES.get(preset.lower(), 3_000),
    }
    workload_overrides: dict[str, object] = {}
    simulation_overrides: dict[str, object] = {}
    if scale.routing_backend is not None:
        simulation_overrides["routing_backend"] = scale.routing_backend
    if parameter is None:
        pass
    elif parameter in paper_sizes:
        paper_sizes[parameter] = value
    elif parameter == "capacity":
        simulation_overrides[parameter] = int(value)
    elif parameter in _SIMULATION_PARAMETERS:
        simulation_overrides[parameter] = value
    elif parameter == "capacity_sigma":
        workload_overrides[parameter] = value
    else:
        raise ConfigurationError(f"unknown sweep parameter {parameter!r}")
    for name, fraction in (
        ("num_requests", scale.request_fraction),
        ("num_vehicles", scale.vehicle_fraction),
    ):
        workload_overrides[name] = max(int(round(paper_sizes[name] * fraction)), 1)
    return make_workload(
        preset,
        city_scale=scale.city_scale,
        workload_overrides=workload_overrides,
        simulation_overrides=simulation_overrides,
    )


# --------------------------------------------------------------------------- #
# sweeps: one row per cell, one sweep per dataset, one figure per table entry
# --------------------------------------------------------------------------- #
#: The metric columns of every figure and ablation row, ``MetricsCollector``
#: fields under their own names (the paper's running time: ``dispatch_seconds``).
_FIELDS = (
    "unified_cost", "service_rate", "dispatch_seconds", "shortest_path_queries",
    "peak_memory_bytes", "assigned_requests", "total_requests",
)


def sweep(
    preset: str,
    parameter: str,
    values: Iterable[float],
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    scale: InstanceScale = InstanceScale(),
) -> list[dict[str, Any]]:
    """Sweep one parameter (see :func:`paper_workload`) for every algorithm:
    one row per cell (``dataset``, ``algorithm``, ``parameter``, ``value``).

    The workload is regenerated for every value so that deadline- or
    size-dependent properties are consistent, but only once per value: every
    algorithm of a column runs over the same instance.
    """
    rows: list[dict[str, Any]] = []
    for value in values:
        workload = paper_workload(preset, scale, parameter=parameter, value=value)
        rows += (
            metric_row(
                _FIELDS,
                run(RunSpec(workload=workload, algorithm=algorithm)).simulation.metrics,
                dataset=workload.name,
                algorithm=algorithm,
                parameter=parameter,
                value=float(value),
            )
            for algorithm in algorithms
        )
    return rows


@dataclass(frozen=True)
class FigureSpec:
    """One sweep figure of the paper: what is swept, where and for whom."""

    label: str
    parameter: str
    #: Reduced grid used by quick runs (the full grids are ``PAPER_*`` above).
    values: tuple[float, ...]
    presets: tuple[str, ...] = ("chd", "nyc")
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS

    def __post_init__(self) -> None:
        for name in ("values", "presets", "algorithms"):
            if not getattr(self, name):
                raise ConfigurationError(f"{self.label}: an empty {name}= runs nothing")


def _cainiao(label: str, parameter: str, values: tuple[float, ...]) -> FigureSpec:
    return FigureSpec(label, parameter, values, ("cainiao",), CAINIAO_ALGORITHMS)


#: Figures 8-13 and 17: the main sweeps on CHD and NYC; Figure 14
#: (Appendix A): the memory column of the default-parameter run; Figures
#: 15-16 (Appendices B-C): the Cainiao sweeps.
FIGURES: dict[str, FigureSpec] = {
    "fig8": FigureSpec("Figure 8", "num_vehicles", (1_000, 3_000, 5_000)),
    "fig9": FigureSpec("Figure 9", "num_requests", (10_000, 100_000, 250_000)),
    "fig10": FigureSpec("Figure 10", "gamma", (1.2, 1.5, 2.0)),
    "fig11": FigureSpec("Figure 11", "capacity", (2, 3, 6)),
    "fig12": FigureSpec("Figure 12", "penalty_coefficient", (2, 10, 30)),
    "fig13": FigureSpec(
        "Figure 13", "batch_period", (1, 3, 9), algorithms=BATCH_ALGORITHMS
    ),
    "fig14": FigureSpec("Figure 14 (memory)", "penalty_coefficient", (10.0,)),
    "fig15_num_vehicles": _cainiao(
        "Figure 15 (num_vehicles)", "num_vehicles", (3_000, 4_000, 5_000)
    ),
    "fig15_num_requests": _cainiao(
        "Figure 15 (num_requests)", "num_requests", (50_000, 100_000, 150_000)
    ),
    "fig15_gamma": _cainiao("Figure 15 (gamma)", "gamma", (1.8, 2.0, 2.2)),
    "fig15_penalty_coefficient": _cainiao(
        "Figure 15 (penalty_coefficient)", "penalty_coefficient", (2, 10, 30)
    ),
    "fig15_batch_period": _cainiao(
        "Figure 15 (batch_period)", "batch_period", (3, 5, 7)
    ),
    "fig16_capacity": _cainiao("Figure 16 (capacity)", "capacity", (2, 3, 6)),
    "fig16_capacity_sigma": _cainiao(
        "Figure 16 (sigma)", "capacity_sigma", (0.0, 1.0, 2.0)
    ),
    "fig17": FigureSpec("Figure 17", "capacity_sigma", (0.0, 1.0, 2.0)),
}


def figure(
    key: str,
    *,
    values: Sequence[float] | None = None,
    presets: Sequence[str] | None = None,
    algorithms: Sequence[str] | None = None,
    scale: InstanceScale = InstanceScale(),
) -> list[dict[str, Any]]:
    """The rows of one entry of :data:`FIGURES`, preset after preset (see
    :func:`sweep`); ``None`` keeps the entry's own value, and an empty
    override is refused."""
    try:
        spec = FIGURES[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {key!r}; choose from {sorted(FIGURES)}"
        ) from None
    overrides = {"values": values, "presets": presets, "algorithms": algorithms}
    spec = replace(
        spec, **{name: tuple(v) for name, v in overrides.items() if v is not None}
    )
    rows: list[dict[str, Any]] = []
    for preset in spec.presets:
        rows += sweep(
            preset, spec.parameter, spec.values, algorithms=spec.algorithms, scale=scale
        )
    return rows


# --------------------------------------------------------------------------- #
# Tables V and VI: the angle pruning ablation
# --------------------------------------------------------------------------- #
def angle_pruning_ablation(
    *,
    presets: Sequence[str] = ("chd", "nyc"),
    scale: InstanceScale = InstanceScale(),
) -> list[dict[str, Any]]:
    """SARD without pruning versus SARD-O with angle pruning, at the paper's
    default sizes: Table VI on CHD and NYC, Table V with ``("cainiao",)``;
    one row per cell (``dataset``, ``method``)."""
    rows: list[dict[str, Any]] = []
    for preset in presets:
        workload = paper_workload(preset, scale)
        for method, dispatcher in (
            ("SARD", SARDDispatcher.without_angle_pruning()),
            ("SARD-O", SARDDispatcher.with_angle_pruning()),
        ):
            spec = RunSpec(workload=workload, algorithm=method, dispatcher=dispatcher)
            metrics = run(spec).simulation.metrics
            rows.append(
                metric_row(_FIELDS, metrics, dataset=workload.name, method=method)
            )
    return rows


# --------------------------------------------------------------------------- #
# Section IV-A: shareability-ordered insertion study
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InsertionOrderStudy:
    """Fractions of sampled groups whose linear insertion matched the optimum."""

    dataset: str
    group_size: int
    samples: int
    release_order_optimal: float
    shareability_order_optimal: float


def insertion_order_study(
    *,
    preset: str = "nyc",
    num_requests: int = 400,
    group_sizes: Sequence[int] = (3, 4),
    samples_per_size: int = 40,
    seed: int = 5,
) -> list[InsertionOrderStudy]:
    """Reproduce the Section IV-A claim: ordering insertions by ascending
    shareability raises the probability that linear insertion reaches the
    optimal schedule (the cheapest of every feasible stop order)."""
    workload = make_workload(
        preset, city_scale=0.7, workload_overrides={"num_requests": num_requests}
    )
    oracle = workload.fresh_oracle()
    config = workload.simulation_config.with_overrides(capacity=6)
    builder = DynamicShareabilityGraphBuilder(
        network=workload.network, oracle=oracle, config=config
    )
    builder.update(workload.requests)
    graph = builder.graph
    rng = random.Random(seed)
    results: list[InsertionOrderStudy] = []
    request_by_id = {r.request_id: r for r in workload.requests}
    for size in group_sizes:
        release_hits = 0
        shareability_hits = 0
        samples = 0
        attempts = 0
        while samples < samples_per_size and attempts < samples_per_size * 60:
            attempts += 1
            seed_request = rng.choice(workload.requests)
            clique = _sample_clique(graph, seed_request.request_id, size, rng)
            if clique is None:
                continue
            requests = [request_by_id[rid] for rid in clique]
            anchor = min(requests, key=lambda r: r.release_time)
            route = RouteState(
                vehicle_id=-1,
                origin=anchor.source,
                departure_time=anchor.release_time,
                schedule=Schedule.empty(),
                capacity=config.capacity,
                onboard=0,
            )
            optimal = _optimal_cost(route, requests, oracle)
            if math.isinf(optimal):
                continue
            by_release = sorted(requests, key=lambda r: r.release_time)
            by_shareability = sorted(requests, key=lambda r: graph.degree(r.request_id))
            release_outcome = insert_sequence(route, by_release, oracle)
            shareability_outcome = insert_sequence(route, by_shareability, oracle)
            samples += 1
            if release_outcome.feasible and release_outcome.total_cost <= optimal:
                release_hits += 1
            if (
                shareability_outcome.feasible
                and shareability_outcome.total_cost <= optimal
            ):
                shareability_hits += 1
        if samples == 0:
            continue
        results.append(
            InsertionOrderStudy(
                dataset=workload.name,
                group_size=size,
                samples=samples,
                release_order_optimal=release_hits / samples,
                shareability_order_optimal=shareability_hits / samples,
            )
        )
    return results


def _optimal_cost(route: RouteState, requests: Sequence, oracle) -> float:
    """Cheapest feasible order of the requests' stops, each pick-up before
    its drop-off, every order priced by ``Schedule.evaluate`` as the
    insertion kernel prices; ``inf`` when no order is feasible."""
    best = math.inf

    def walk(order: list[Waypoint], available: list[Waypoint]) -> None:
        nonlocal best
        if not available:
            evaluation = Schedule(order).evaluate(
                oracle, route.origin, route.departure_time,
                capacity=route.capacity, initial_load=route.onboard,
            )
            if evaluation.feasible and evaluation.travel_cost < best:
                best = evaluation.travel_cost
            return
        for index, stop in enumerate(available):
            rest = available[:index] + available[index + 1:]
            if stop.kind is WaypointKind.PICKUP:
                rest.append(Waypoint(stop.request, WaypointKind.DROPOFF))
            walk(order + [stop], rest)

    walk([], [Waypoint(request, WaypointKind.PICKUP) for request in requests])
    return best


def _sample_clique(
    graph: ShareabilityGraph, seed_id: int, size: int, rng: random.Random
) -> set[int] | None:
    """Sample a clique of the given size containing ``seed_id`` (or ``None``)."""
    clique = {seed_id}
    candidates = set(graph.neighbors(seed_id))
    while len(clique) < size:
        if not candidates:
            return None
        pick = rng.choice(sorted(candidates))
        clique.add(pick)
        candidates &= graph.neighbors(pick)
        candidates -= clique
    return clique


# --------------------------------------------------------------------------- #
# Section III-B: expected sharing probability at the pruning threshold
# --------------------------------------------------------------------------- #
def angle_expectation_study(
    *,
    preset: str = "nyc",
    num_requests: int = 600,
    theta: float = math.pi / 2.0,
    gamma: float = 1.5,
) -> dict[str, float]:
    """Fit the trip-length log-normal of a workload and evaluate E(theta >= delta).

    The paper reports roughly 41% for both datasets at ``theta = pi/2`` and
    ``gamma = 1.5``.
    """
    workload = make_workload(
        preset, city_scale=0.7, workload_overrides={"num_requests": num_requests}
    )
    distances = [request.direct_cost for request in workload.requests]
    mu, sigma = fit_lognormal(distances)
    probability = expected_sharing_probability(mu, sigma, theta, gamma)
    return {
        "dataset": workload.name,
        "mu": mu,
        "sigma": sigma,
        "theta": theta,
        "gamma": gamma,
        "expected_probability": probability,
    }
