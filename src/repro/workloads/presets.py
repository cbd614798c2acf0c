"""Named workloads mirroring the paper's three datasets.

Each preset scales the real dataset down to laptop size while keeping the
ratios that drive the comparison between algorithms: requests per vehicle,
requests per batch, trip-length distribution and spatial concentration.

* ``chd`` -- Didi Chengdu: larger, sparser network, moderate demand density.
* ``nyc`` -- NYC yellow/green taxi: compact network, roughly double the
  request rate per unit time, concentrated demand.
* ``cainiao`` -- Cainiao Shanghai deliveries: dispersed demand, longer trips
  and more generous deadlines (the paper uses gamma in [1.8, 2.2] there).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..config import DemandSurge, SimulationConfig, WorkloadConfig
from ..exceptions import WorkloadError
from ..model.request import Request
from ..model.vehicle import Vehicle
from ..network.generators import make_city
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from .requests_gen import RequestGenerator, generate_vehicles

@dataclass(frozen=True)
class PresetEntry:
    """One named preset: city template plus its two configurations."""

    city: str
    workload: WorkloadConfig
    simulation: SimulationConfig


#: Paper-inspired workload presets.
#:
#: The real traces span a full day; a faithful laptop-scale reproduction has
#: to compress time while preserving the three ratios that decide which
#: algorithm wins: requests per batch (batch density), concurrent trips per
#: vehicle (supply pressure) and trip duration relative to the maximum
#: waiting time.  Each preset therefore uses a fixed ``arrival_rate`` (so the
#: horizon scales with the request count), trips a few minutes long and a
#: proportionally reduced waiting budget.  ``num_requests`` / ``num_vehicles``
#: are the defaults at ``scale=1.0``; the experiment harness sweeps them.
WORKLOAD_PRESETS: dict[str, PresetEntry] = {
    "chd": PresetEntry(
        city="chd",
        workload=WorkloadConfig(
            name="CHD",
            num_requests=2400,
            num_vehicles=130,
            arrival_rate=1.0,
            trip_log_mean=math.log(130.0),
            trip_log_sigma=0.55,
            num_hotspots=8,
            hotspot_fraction=0.55,
            seed=11,
        ),
        simulation=SimulationConfig(max_wait=90.0),
    ),
    "nyc": PresetEntry(
        city="nyc",
        workload=WorkloadConfig(
            name="NYC",
            num_requests=2400,
            num_vehicles=130,
            arrival_rate=1.5,
            trip_log_mean=math.log(110.0),
            trip_log_sigma=0.5,
            num_hotspots=5,
            hotspot_fraction=0.75,
            seed=22,
        ),
        simulation=SimulationConfig(max_wait=75.0),
    ),
    "cainiao": PresetEntry(
        city="cainiao",
        workload=WorkloadConfig(
            name="Cainiao",
            num_requests=1600,
            num_vehicles=100,
            arrival_rate=0.7,
            trip_log_mean=math.log(170.0),
            trip_log_sigma=0.6,
            num_hotspots=12,
            hotspot_fraction=0.4,
            seed=33,
        ),
        simulation=SimulationConfig(gamma=2.0, capacity=4, max_wait=150.0),
    ),
}


@dataclass
class Workload:
    """A fully materialised workload ready to be simulated."""

    name: str
    network: RoadNetwork
    oracle: DistanceOracle
    requests: list[Request]
    workload_config: WorkloadConfig
    simulation_config: SimulationConfig

    def fresh_vehicles(self) -> list[Vehicle]:
        """A brand-new fleet (vehicles are mutable, so one per simulation)."""
        return generate_vehicles(self.network, self.workload_config, self.simulation_config)

    def fresh_oracle(
        self, *, cache_size: int = 200_000, backend: str | None = None
    ) -> DistanceOracle:
        """A new distance oracle with clean statistics over the same network.

        The routing backend defaults to the simulation configuration's
        ``routing_backend``; the preprocessed structures (CSR / hierarchy /
        labels) are shared across oracles over the same network, so a fresh
        oracle only resets the cache and the statistics.
        """
        return DistanceOracle(
            self.network,
            cache_size=cache_size,
            backend=backend or self.simulation_config.routing_backend,
        )

    @property
    def num_requests(self) -> int:
        """Number of requests in the trace."""
        return len(self.requests)


def resolve_preset_configs(
    preset: str,
    *,
    scale: float = 1.0,
    vehicle_scale: float = 1.0,
    workload_overrides: dict[str, object] | None = None,
    simulation_overrides: dict[str, object] | None = None,
) -> tuple[str, WorkloadConfig, SimulationConfig]:
    """Resolve a preset into ``(city_name, workload_config, simulation_config)``.

    Factored out of :func:`make_workload` so callers that need the scaled
    configuration *before* building the workload (the scenario engine derives
    event times from the effective horizon and cancellation targets from the
    request count) resolve it exactly once, the same way.
    """
    key = preset.lower()
    if key not in WORKLOAD_PRESETS:
        raise WorkloadError(
            f"unknown workload preset {preset!r}; choose from {sorted(WORKLOAD_PRESETS)}"
        )
    if scale <= 0 or vehicle_scale <= 0:
        raise WorkloadError("scale and vehicle_scale must be positive")
    entry = WORKLOAD_PRESETS[key]
    workload_config = entry.workload
    simulation_config = entry.simulation
    scaled_fields: dict[str, object] = {
        "num_requests": max(int(round(workload_config.num_requests * scale)), 1),
        "num_vehicles": max(int(round(workload_config.num_vehicles * vehicle_scale)), 1),
    }
    scaled_fields.update(workload_overrides or {})
    workload_config = workload_config.with_overrides(**scaled_fields)
    if simulation_overrides:
        simulation_config = simulation_config.with_overrides(**simulation_overrides)
    return entry.city, workload_config, simulation_config


def make_workload(
    preset: str = "nyc",
    *,
    scale: float = 1.0,
    vehicle_scale: float = 1.0,
    city_scale: float = 0.7,
    workload_overrides: dict[str, object] | None = None,
    simulation_overrides: dict[str, object] | None = None,
    network: RoadNetwork | None = None,
    surges: Sequence[DemandSurge] = (),
) -> Workload:
    """Build one of the named workloads.

    Parameters
    ----------
    preset:
        ``"chd"``, ``"nyc"`` or ``"cainiao"``.
    scale:
        Multiplies the number of requests.  Because every preset fixes the
        arrival rate, scaling the request count shortens or lengthens the
        simulated horizon while keeping the per-batch density -- the fleet
        size is deliberately *not* scaled with it.
    vehicle_scale:
        Multiplies the fleet size independently of the request count.
    city_scale:
        Multiplies the road-network size relative to the preset city.
    workload_overrides / simulation_overrides:
        Field overrides applied on top of the preset configurations, e.g.
        ``simulation_overrides={"gamma": 1.8}`` for the deadline sweep.
    network:
        A prebuilt city to generate over (the scenario engine derives zones
        and corridors from the network before generating demand on it);
        ``city_scale`` is ignored then.
    surges:
        :class:`~repro.config.DemandSurge` windows modulating the request
        generator's arrival intensity and spatial anchoring.
    """
    city_name, workload_config, simulation_config = resolve_preset_configs(
        preset,
        scale=scale,
        vehicle_scale=vehicle_scale,
        workload_overrides=workload_overrides,
        simulation_overrides=simulation_overrides,
    )
    if network is None:
        network = make_city(city_name, scale=city_scale)
    oracle = DistanceOracle(network, backend=simulation_config.routing_backend)
    generator = RequestGenerator(network, oracle, workload_config, simulation_config)
    requests = generator.generate(surges=surges)
    return Workload(
        name=workload_config.name,
        network=network,
        oracle=oracle,
        requests=requests,
        workload_config=workload_config,
        simulation_config=simulation_config,
    )
