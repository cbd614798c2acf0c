"""Synthetic road-network generators.

The paper evaluates on the OpenStreetMap road networks of Chengdu (214K
nodes), New York City (112K nodes) and Shanghai.  Those extracts are not
redistributable here, so this module builds procedural city graphs with the
same characteristics the dispatch algorithms are sensitive to:

* planar node coordinates (used by the grid index and angle pruning),
* strongly connected, directed travel-time edges,
* a denser "downtown" core and sparser periphery,
* a handful of fast "expressway" shortcuts that make some Euclidean-infeasible
  detours feasible on the road network (the caveat the paper discusses for
  its angle-pruning rule).

All travel times are in seconds; all coordinates are in meters.
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from dataclasses import dataclass

from ..exceptions import WorkloadError
from .road_network import RoadNetwork

#: Default urban driving speed in meters per second (~36 km/h).
DEFAULT_SPEED = 10.0
#: Expressway speed in meters per second (~72 km/h).
EXPRESS_SPEED = 20.0


@dataclass(frozen=True)
class CityPreset:
    """Parameters of a named synthetic city.

    The presets mirror the relative shapes of the paper's datasets: the NYC
    network is roughly half the size of Chengdu's but more compact (shorter
    blocks), and the Cainiao (Shanghai delivery) area is larger and sparser.
    """

    name: str
    rows: int
    cols: int
    block_length: float
    perturbation: float
    express_fraction: float
    seed: int


#: Named presets keyed by a lowercase identifier.
CITY_PRESETS: dict[str, CityPreset] = {
    "chd": CityPreset(
        name="CHD", rows=36, cols=36, block_length=260.0,
        perturbation=0.25, express_fraction=0.015, seed=101,
    ),
    "nyc": CityPreset(
        name="NYC", rows=26, cols=26, block_length=180.0,
        perturbation=0.15, express_fraction=0.02, seed=202,
    ),
    "cainiao": CityPreset(
        name="Cainiao", rows=40, cols=40, block_length=320.0,
        perturbation=0.3, express_fraction=0.01, seed=303,
    ),
    "tiny": CityPreset(
        name="Tiny", rows=8, cols=8, block_length=200.0,
        perturbation=0.1, express_fraction=0.0, seed=404,
    ),
}


def grid_city(
    rows: int,
    cols: int,
    *,
    block_length: float = 250.0,
    speed: float = DEFAULT_SPEED,
    perturbation: float = 0.2,
    express_fraction: float = 0.0,
    seed: int = 0,
) -> RoadNetwork:
    """Build a Manhattan-style lattice city.

    Parameters
    ----------
    rows, cols:
        Number of intersections along each axis.
    block_length:
        Distance between adjacent intersections in meters.
    speed:
        Average driving speed in m/s used to convert distance to travel time.
    perturbation:
        Relative jitter applied to each edge's travel time (models congestion
        differences between streets).  Must be in ``[0, 1)``.
    express_fraction:
        Fraction of node pairs connected with an additional fast shortcut
        ("expressway") edge at :data:`EXPRESS_SPEED`.
    seed:
        Random seed for perturbation and expressway placement.
    """
    if rows < 2 or cols < 2:
        raise WorkloadError("grid_city needs at least a 2x2 lattice")
    if not 0 <= perturbation < 1:
        raise WorkloadError("perturbation must be in [0, 1)")
    if speed <= 0:
        raise WorkloadError("speed must be positive")
    rng = random.Random(seed)
    network = RoadNetwork()

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            network.add_node(node_id(r, c), c * block_length, r * block_length)

    def jittered_time(distance: float) -> float:
        factor = 1.0 + rng.uniform(-perturbation, perturbation)
        return max(distance / speed * factor, 1e-3)

    for r in range(rows):
        for c in range(cols):
            here = node_id(r, c)
            if c + 1 < cols:
                right = node_id(r, c + 1)
                network.add_edge(here, right, jittered_time(block_length))
                network.add_edge(right, here, jittered_time(block_length))
            if r + 1 < rows:
                down = node_id(r + 1, c)
                network.add_edge(here, down, jittered_time(block_length))
                network.add_edge(down, here, jittered_time(block_length))

    num_express = int(express_fraction * rows * cols)
    nodes = list(network.nodes())
    for _ in range(num_express):
        u, v = rng.sample(nodes, 2)
        distance = network.euclidean(u, v)
        if distance <= block_length:
            continue
        travel = distance / EXPRESS_SPEED
        network.add_edge(u, v, travel)
        network.add_edge(v, u, travel)
    return network


def ring_radial_city(
    rings: int,
    spokes: int,
    *,
    speed: float = DEFAULT_SPEED,
    seed: int = 0,
) -> RoadNetwork:
    """Build a ring-and-radial city (a common European/Chinese layout).

    Node 0 is the center; ring ``i`` (1-based) has ``spokes`` nodes evenly
    spaced on a circle of radius ``400 * i`` m.  Every node connects to
    its ring neighbours and to the matching node on adjacent rings.
    """
    if rings < 1 or spokes < 3:
        raise WorkloadError("ring_radial_city needs rings >= 1 and spokes >= 3")
    rng = random.Random(seed)
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)

    def node_id(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke

    for ring in range(1, rings + 1):
        radius = ring * 400.0
        for spoke in range(spokes):
            angle = 2 * math.pi * spoke / spokes
            network.add_node(node_id(ring, spoke), radius * math.cos(angle),
                             radius * math.sin(angle))

    def travel(u: int, v: int) -> float:
        distance = network.euclidean(u, v)
        return max(distance / speed * (1.0 + rng.uniform(-0.1, 0.1)), 1e-3)

    for spoke in range(spokes):
        first = node_id(1, spoke)
        network.add_edge(0, first, travel(0, first), bidirectional=True)
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            here = node_id(ring, spoke)
            neighbour = node_id(ring, (spoke + 1) % spokes)
            network.add_edge(here, neighbour, travel(here, neighbour),
                             bidirectional=True)
            if ring < rings:
                outward = node_id(ring + 1, spoke)
                network.add_edge(here, outward, travel(here, outward),
                                 bidirectional=True)
    return network


def make_city(preset: str | CityPreset = "nyc", *, scale: float = 1.0) -> RoadNetwork:
    """Build one of the named synthetic cities.

    ``scale`` multiplies the number of intersections per axis, so
    ``scale=0.5`` produces a quarter-size city suited to unit tests while
    ``scale=2.0`` approaches the density of the paper's road networks.
    """
    if isinstance(preset, str):
        try:
            preset = CITY_PRESETS[preset.lower()]
        except KeyError as exc:
            raise WorkloadError(
                f"unknown city preset {preset!r}; choose from {sorted(CITY_PRESETS)}"
            ) from exc
    if scale <= 0:
        raise WorkloadError("scale must be positive")
    rows = max(2, int(round(preset.rows * scale)))
    cols = max(2, int(round(preset.cols * scale)))
    return grid_city(
        rows,
        cols,
        block_length=preset.block_length,
        perturbation=preset.perturbation,
        express_fraction=preset.express_fraction,
        seed=preset.seed,
    )
