"""Named dynamic-world scenarios: rush hour, bridge closure, stadium surge.

Each preset is a factory deriving a :class:`~repro.scenarios.timeline.Scenario`
from a concrete road network and request horizon: geographic zones become
edge sets, horizon fractions become event times, and the intensities are the
constants below.  The presets exercise every event type of the engine:

* ``rush_hour`` -- a traffic wave rolling outward from downtown (core zone
  slows first and hardest, the midtown ring follows milder) plus an inbound
  commuter demand surge.
* ``bridge_closure`` -- the central segment of the main west-east corridor
  closes mid-run and reopens later; routing must detour exactly while the
  closure holds.
* ``stadium_surge`` -- an event venue empties: outbound demand surge around
  the stadium, localised congestion, reinforcement vehicles on a temporary
  shift, and a wave of rider cancellations when queues build up.

:func:`make_scenario_workload` bundles the whole thing: it builds the city,
derives the scenario from it, generates the surge-modulated request trace
and returns the workload plus the scenario ready for
:class:`~repro.simulation.engine.Simulator`.
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..config import ChaosConfig, DemandSurge, ScenarioConfig
from ..exceptions import ConfigurationError
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from .events import (
    CancelRequests,
    VehicleShiftEnd,
    VehicleShiftStart,
    WorldEvent,
    road_closure,
    traffic_wave,
)
from .timeline import Scenario

if TYPE_CHECKING:
    from ..workloads.presets import Workload

#: Vehicle ids of scenario-spawned shift vehicles start here, far above any
#: workload-generated fleet.
SHIFT_VEHICLE_ID_BASE = 100_000

#: Travel-time multiplier of rush-hour slowdown waves (> 1 slows down).
SLOWDOWN_FACTOR = 1.8
#: Arrival-intensity multiplier of demand-surge windows.
SURGE_MULTIPLIER = 2.5
#: Closure window of the ``bridge_closure`` preset, as fractions of the
#: request horizon.
CLOSURE_WINDOW = (0.25, 0.75)
#: Seed of the stadium preset's stochastic parts (shift-vehicle placement,
#: cancellation sampling).
SCENARIO_SEED = 5


def zone_edges(
    network: RoadNetwork, cx: float, cy: float, radius: float
) -> list[tuple[int, int]]:
    """Undirected edge pairs whose midpoint lies within the given disk."""
    radius_sq = radius * radius
    seen: set[tuple[int, int]] = set()
    for u, v, _ in network.edges():
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        ux, uy = network.position(u)
        vx, vy = network.position(v)
        mx, my = (ux + vx) / 2.0, (uy + vy) / 2.0
        if (mx - cx) ** 2 + (my - cy) ** 2 <= radius_sq:
            seen.add(key)
    return sorted(seen)


def ring_edges(
    network: RoadNetwork, cx: float, cy: float, inner: float, outer: float
) -> list[tuple[int, int]]:
    """Undirected edge pairs whose midpoint lies in the ``[inner, outer)`` annulus."""
    outer_set = set(zone_edges(network, cx, cy, outer))
    inner_set = set(zone_edges(network, cx, cy, inner))
    return sorted(outer_set - inner_set)


def _geometry(network: RoadNetwork) -> tuple[float, float, float]:
    """Center and characteristic extent of the network's bounding box."""
    min_x, min_y, max_x, max_y = network.bounding_box()
    extent = min(max_x - min_x, max_y - min_y)
    return (min_x + max_x) / 2.0, (min_y + max_y) / 2.0, extent


def corridor_edges(network: RoadNetwork, *, span: float = 0.2) -> list[tuple[int, int]]:
    """The middle segment of the main west-east shortest-path corridor.

    Routes a plain Dijkstra between the westmost and eastmost nodes and
    returns the consecutive node pairs of the central ``span`` fraction of
    that path -- the network's "bridge": closing it forces every crossing
    trip onto a detour.
    """
    nodes = list(network.nodes())
    west = min(nodes, key=lambda n: network.position(n)[0])
    east = max(nodes, key=lambda n: network.position(n)[0])
    path = DistanceOracle(network, cache_size=0).path(west, east)
    if len(path) < 4:
        raise ConfigurationError(
            "network too small to derive a closure corridor (path has "
            f"{len(path)} nodes)"
        )
    lo = max(int(len(path) * (0.5 - span / 2)), 0)
    hi = min(max(int(len(path) * (0.5 + span / 2)), lo + 2), len(path))
    segment = path[lo:hi]
    return list(zip(segment, segment[1:]))


# --------------------------------------------------------------------- #
# preset factories
# --------------------------------------------------------------------- #
def _rush_hour(
    network: RoadNetwork,
    horizon: float,
    config: ScenarioConfig,
    num_requests: int,
) -> Scenario:
    cx, cy, extent = _geometry(network)
    core = zone_edges(network, cx, cy, 0.25 * extent)
    ring = ring_edges(network, cx, cy, 0.25 * extent, 0.45 * extent)
    center_node = network.nearest_node(cx, cy)

    def build() -> list[WorldEvent]:
        events: list[WorldEvent] = []
        # The wave rolls outward: the core congests first and hardest, the
        # ring follows a little later at a milder factor, and both recover
        # in the same order.
        events += traffic_wave(core, SLOWDOWN_FACTOR, 0.15 * horizon, 0.60 * horizon)
        events += traffic_wave(
            ring, math.sqrt(SLOWDOWN_FACTOR), 0.25 * horizon, 0.70 * horizon
        )
        return events

    surges = (
        DemandSurge(
            start=0.15 * horizon,
            end=0.60 * horizon,
            rate_multiplier=SURGE_MULTIPLIER * 0.7,
            center=center_node,
            attraction=0.5,
            direction="inbound",
        ),
    )
    return Scenario(
        name="rush_hour",
        horizon=horizon,
        surges=surges,
        events_builder=build,
        config=config,
        description=(
            "traffic wave rolling outward from downtown plus an inbound "
            "commuter demand surge"
        ),
    )


def _bridge_closure(
    network: RoadNetwork,
    horizon: float,
    config: ScenarioConfig,
    num_requests: int,
) -> Scenario:
    corridor = corridor_edges(network)
    start, end = (fraction * horizon for fraction in CLOSURE_WINDOW)

    def build() -> list[WorldEvent]:
        return road_closure(corridor, start, end)

    return Scenario(
        name="bridge_closure",
        horizon=horizon,
        events_builder=build,
        config=config,
        description=(
            "central west-east corridor closes mid-run and reopens; all "
            "crossing trips must detour while it holds"
        ),
    )


def _stadium_surge(
    network: RoadNetwork,
    horizon: float,
    config: ScenarioConfig,
    num_requests: int,
) -> Scenario:
    min_x, min_y, max_x, max_y = network.bounding_box()
    sx = min_x + 0.72 * (max_x - min_x)
    sy = min_y + 0.72 * (max_y - min_y)
    stadium = network.nearest_node(sx, sy)
    stadium_x, stadium_y = network.position(stadium)
    _, _, extent = _geometry(network)
    around = zone_edges(network, stadium_x, stadium_y, 0.2 * extent)

    def build() -> list[WorldEvent]:
        rng = random.Random(SCENARIO_SEED)
        events: list[WorldEvent] = []
        # Congestion around the venue while the crowd pours out.
        events += traffic_wave(
            around, SLOWDOWN_FACTOR, 0.42 * horizon, 0.78 * horizon
        )
        # Reinforcement vehicles on a temporary shift near the stadium.
        specs = []
        for offset in range(6):
            jitter_x = stadium_x + rng.gauss(0.0, 0.1 * extent)
            jitter_y = stadium_y + rng.gauss(0.0, 0.1 * extent)
            specs.append(
                (
                    SHIFT_VEHICLE_ID_BASE + offset,
                    network.nearest_node(jitter_x, jitter_y),
                    4,
                )
            )
        events.append(VehicleShiftStart(0.35 * horizon, specs))
        events.append(
            VehicleShiftEnd(0.90 * horizon, [spec[0] for spec in specs])
        )
        # Riders bailing out when the queue builds up mid-surge.
        if num_requests > 0:
            cancelled = rng.sample(
                range(num_requests), max(num_requests // 30, 1)
            )
            events.append(CancelRequests(0.55 * horizon, sorted(cancelled)))
        return events

    surges = (
        DemandSurge(
            start=0.40 * horizon,
            end=0.75 * horizon,
            rate_multiplier=SURGE_MULTIPLIER,
            center=stadium,
            attraction=0.8,
            direction="outbound",
        ),
    )
    return Scenario(
        name="stadium_surge",
        horizon=horizon,
        surges=surges,
        events_builder=build,
        config=config,
        description=(
            "event venue empties: outbound surge, local congestion, "
            "reinforcement shift vehicles and rider cancellations"
        ),
    )


#: Registry of scenario factories keyed by preset name.
SCENARIO_PRESETS: dict[
    str, Callable[[RoadNetwork, float, ScenarioConfig, int], Scenario]
] = {
    "rush_hour": _rush_hour,
    "bridge_closure": _bridge_closure,
    "stadium_surge": _stadium_surge,
}


def make_scenario(
    name: str,
    network: RoadNetwork,
    *,
    horizon: float,
    config: ScenarioConfig | None = None,
    num_requests: int = 0,
) -> Scenario:
    """Derive a named scenario from a concrete network and horizon."""
    key = name.lower()
    if key not in SCENARIO_PRESETS:
        raise ConfigurationError(
            f"unknown scenario preset {name!r}; choose from {sorted(SCENARIO_PRESETS)}"
        )
    if not math.isfinite(horizon) or horizon <= 0:
        raise ConfigurationError(f"horizon must be finite and positive (got {horizon!r})")
    return SCENARIO_PRESETS[key](
        network, horizon, config or ScenarioConfig(), num_requests
    )


#: Named fault-injection profiles for chaos runs (see
#: :mod:`repro.resilience`).  ``flaky_oracle`` models an unreliable refresh
#: path -- rebuilds and repairs fail often enough to exercise retries and
#: the occasional breaker trip, refreshes sometimes corrupt the structures
#: (caught by the invariant probes) and a few queries spike.
#: ``oracle_meltdown`` is the worst-case drill: most refresh operations
#: fail, corruption is frequent and query spikes are long enough to overrun
#: the batch budget and degrade the dispatcher.
CHAOS_PRESETS: dict[str, ChaosConfig] = {
    "flaky_oracle": ChaosConfig(
        rebuild_failure_rate=0.25,
        repair_failure_rate=0.30,
        corruption_rate=0.25,
        corruption_factor=1.07,
        query_spike_rate=0.01,
        spike_seconds=0.05,
    ),
    "oracle_meltdown": ChaosConfig(
        rebuild_failure_rate=0.55,
        repair_failure_rate=0.85,
        corruption_rate=0.75,
        corruption_factor=1.25,
        query_spike_rate=0.05,
        spike_seconds=0.08,
    ),
}


def make_chaos_config(name: str, **overrides: Any) -> ChaosConfig:
    """Look up a named chaos preset, optionally overriding its knobs."""
    key = name.lower()
    if key not in CHAOS_PRESETS:
        raise ConfigurationError(
            f"unknown chaos preset {name!r}; choose from {sorted(CHAOS_PRESETS)}"
        )
    config = CHAOS_PRESETS[key]
    return config.with_overrides(**overrides) if overrides else config


def make_scenario_workload(
    preset: str = "nyc",
    scenario: str = "bridge_closure",
    *,
    scale: float = 1.0,
    vehicle_scale: float = 1.0,
    city_scale: float = 0.7,
    scenario_config: ScenarioConfig | None = None,
    workload_overrides: dict[str, Any] | None = None,
    simulation_overrides: dict[str, Any] | None = None,
) -> tuple[Workload, Scenario]:
    """Build a workload preset together with a scenario derived from its city.

    The city network is built first so the scenario factory can derive zones
    and corridors from it; the scenario's demand surges then modulate the
    request generator of :func:`repro.workloads.presets.make_workload`.
    Returns ``(workload, scenario)``.
    """
    from ..network.generators import make_city
    from ..workloads.presets import make_workload, resolve_preset_configs

    city_name, workload_config, _ = resolve_preset_configs(
        preset,
        scale=scale,
        vehicle_scale=vehicle_scale,
        workload_overrides=workload_overrides,
        simulation_overrides=simulation_overrides,
    )
    network = make_city(city_name, scale=city_scale)
    built = make_scenario(
        scenario,
        network,
        horizon=workload_config.effective_horizon,
        config=scenario_config,
        num_requests=workload_config.num_requests,
    )
    workload = make_workload(
        preset,
        scale=scale,
        vehicle_scale=vehicle_scale,
        city_scale=city_scale,
        workload_overrides=workload_overrides,
        simulation_overrides=simulation_overrides,
        network=network,
        surges=built.surges,
    )
    return workload, built
