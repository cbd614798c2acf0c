"""Synthetic request and fleet generation.

The generator reproduces the statistical properties the dispatch algorithms
are sensitive to:

* **trip lengths** follow a log-normal distribution (Section III-B of the
  paper fits a log-normal to the Chengdu and NYC trip-length histograms),
* **spatial concentration**: a configurable fraction of origins is drawn
  from a small number of hotspots, mimicking the compact demand of NYC
  versus the dispersed demand of the Cainiao delivery workload, and
* **arrival process**: request release times form a homogeneous Poisson
  process over the horizon (the paper's batches then slice this stream).

The scenario engine modulates the generator through
:class:`~repro.config.DemandSurge` windows: inside a window the arrival
intensity is multiplied (piecewise-constant thinning conditioned on the
total count) and a configurable fraction of the requests is anchored to the
surge center -- origins near it for ``"outbound"`` surges (a venue
emptying), destinations near it for ``"inbound"`` ones (commuters heading
downtown).
"""

from __future__ import annotations

import math
# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random
from collections.abc import Sequence

from ..config import DemandSurge, SimulationConfig, WorkloadConfig
from ..exceptions import WorkloadError
from ..model.request import Request
from ..model.vehicle import Vehicle
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle


class RequestGenerator:
    """Generates a synthetic request trace over a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        oracle: DistanceOracle,
        workload: WorkloadConfig,
        simulation: SimulationConfig,
    ) -> None:
        self._network = network
        self._oracle = oracle
        self._workload = workload
        self._simulation = simulation
        self._rng = random.Random(workload.seed)
        self._nodes = list(network.nodes())
        if not self._nodes:
            raise WorkloadError("cannot generate requests on an empty network")
        self._hotspots = self._pick_hotspots()

    # ------------------------------------------------------------------ #
    def generate(self, *, surges: Sequence[DemandSurge] = ()) -> list[Request]:
        """Generate the configured number of requests, sorted by release time.

        ``surges`` (scenario engine) reshape the arrival intensity and anchor
        a fraction of in-window trips to the surge centers; without them the
        trace is the homogeneous baseline.
        """
        workload = self._workload
        horizon = workload.effective_horizon
        release_times = self._poisson_arrivals(
            workload.num_requests, horizon, surges=surges
        )
        requests: list[Request] = []
        for request_id, release in enumerate(release_times):
            source, destination, direct_cost = self._sample_trip(
                release_time=release, surges=surges
            )
            riders = self._sample_riders()
            requests.append(
                Request.create(
                    request_id=request_id,
                    source=source,
                    destination=destination,
                    release_time=release,
                    direct_cost=direct_cost,
                    gamma=self._simulation.gamma,
                    max_wait=self._simulation.max_wait,
                    riders=riders,
                )
            )
        requests.sort(key=lambda r: (r.release_time, r.request_id))
        return requests

    # ------------------------------------------------------------------ #
    # sampling primitives
    # ------------------------------------------------------------------ #
    def _pick_hotspots(self) -> list[int]:
        count = max(self._workload.num_hotspots, 0)
        if count == 0:
            return []
        count = min(count, len(self._nodes))
        return self._rng.sample(self._nodes, count)

    def _poisson_arrivals(
        self,
        count: int,
        horizon: float,
        *,
        surges: Sequence[DemandSurge] = (),
    ) -> list[float]:
        """Release times of a Poisson process conditioned on count.

        Without surges the process is homogeneous.  Active surge windows
        multiply the intensity piecewise-constantly (overlapping windows
        compound); times are drawn by inverting the piecewise-linear CDF so
        one uniform draw per request keeps the sampling deterministic under
        the workload seed.
        """
        active = [
            s for s in surges if s.rate_multiplier != 1.0 and s.start < horizon
        ]
        if not active:
            return sorted(self._rng.uniform(0.0, horizon) for _ in range(count))
        bounds = {0.0, horizon}
        for surge in active:
            bounds.add(min(max(surge.start, 0.0), horizon))
            bounds.add(min(max(surge.end, 0.0), horizon))
        edges = sorted(bounds)
        segments: list[tuple[float, float, float]] = []  # (start, end, weight)
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            midpoint = (a + b) / 2.0
            rate = 1.0
            for surge in active:
                if surge.active(midpoint):
                    rate *= surge.rate_multiplier
            weight = rate * (b - a)
            segments.append((a, b, weight))
            total += weight
        if total <= 0.0:
            # Every window zeroed out; fall back to the homogeneous process.
            return sorted(self._rng.uniform(0.0, horizon) for _ in range(count))
        times: list[float] = []
        last = len(segments) - 1
        for _ in range(count):
            r = self._rng.uniform(0.0, total)
            for index, (a, b, weight) in enumerate(segments):
                # The index check catches the float residue of the repeated
                # subtraction: without it a residual a few ulps above the
                # final weight would drop the request silently.
                if r <= weight or index == last:
                    fraction = min(r / weight, 1.0) if weight > 0 else 0.0
                    times.append(a + fraction * (b - a))
                    break
                r -= weight
        return sorted(times)

    def _sample_riders(self) -> int:
        """Geometric-tailed rider count with the configured mean."""
        mean = self._workload.mean_riders
        extra_probability = max(min(1.0 - 1.0 / mean, 0.95), 0.0)
        riders = 1
        while riders < 6 and self._rng.random() < extra_probability:
            riders += 1
        return riders

    def _sample_source(self) -> int:
        if self._hotspots and self._rng.random() < self._workload.hotspot_fraction:
            hotspot = self._rng.choice(self._hotspots)
            return self._near_node(hotspot)
        return self._rng.choice(self._nodes)

    def _near_node(self, node: int, *, spread: float = 700.0) -> int:
        """A node close to ``node`` (Gaussian jitter snapped to the network)."""
        x, y = self._network.position(node)
        jitter_x = x + self._rng.gauss(0.0, spread)
        jitter_y = y + self._rng.gauss(0.0, spread)
        return self._network.nearest_node(jitter_x, jitter_y)

    def _sample_trip(
        self,
        *,
        release_time: float = 0.0,
        surges: Sequence[DemandSurge] = (),
    ) -> tuple[int, int, float]:
        """Sample (source, destination, direct cost) with a log-normal length.

        A surge window with a center that is active at ``release_time``
        anchors the trip with probability ``attraction``: outbound surges
        pin the origin near the center, inbound surges the destination.
        """
        workload = self._workload
        surge = next(
            (
                s
                for s in surges
                if s.center is not None and s.active(release_time)
            ),
            None,
        )
        for _ in range(40):
            anchored = surge is not None and self._rng.random() < surge.attraction
            if anchored and surge.direction == "outbound":
                source = self._near_node(surge.center)
                target_time = self._rng.lognormvariate(
                    workload.trip_log_mean, workload.trip_log_sigma
                )
                destination = self._node_at_travel_time(source, target_time)
            elif anchored:
                source = self._sample_source()
                destination = self._near_node(surge.center)
            else:
                source = self._sample_source()
                target_time = self._rng.lognormvariate(
                    workload.trip_log_mean, workload.trip_log_sigma
                )
                destination = self._node_at_travel_time(source, target_time)
            if destination == source:
                continue
            direct = self._oracle.cost(source, destination)
            if math.isfinite(direct) and direct > 0:
                return source, destination, direct
        raise WorkloadError(
            "failed to sample a reachable trip; the road network may be disconnected"
        )

    def _node_at_travel_time(self, source: int, target_time: float) -> int:
        """A node whose distance from ``source`` approximates ``target_time``.

        Euclidean distance at the configured average driving speed is used as
        a proxy to avoid a shortest-path query per candidate; the true direct
        cost is computed once for the chosen destination.
        """
        speed = 10.0
        target_distance = target_time * speed
        sx, sy = self._network.position(source)
        angle = self._rng.uniform(0.0, 2.0 * math.pi)
        tx = sx + target_distance * math.cos(angle)
        ty = sy + target_distance * math.sin(angle)
        return self._network.nearest_node(tx, ty)


def generate_vehicles(
    network: RoadNetwork,
    workload: WorkloadConfig,
    simulation: SimulationConfig,
) -> list[Vehicle]:
    """Create the fleet: random initial positions, configurable capacities.

    When ``workload.capacity_sigma`` is positive, vehicle capacities follow a
    normal distribution with mean ``simulation.capacity`` (Appendix C of the
    paper); otherwise every vehicle gets the same capacity.
    """
    rng = random.Random(workload.seed + 1000)  # a stream apart from the trace's
    nodes = list(network.nodes())
    if not nodes:
        raise WorkloadError("cannot place vehicles on an empty network")
    vehicles: list[Vehicle] = []
    for vehicle_id in range(workload.num_vehicles):
        location = rng.choice(nodes)
        if workload.capacity_sigma > 0:
            capacity = int(round(rng.gauss(simulation.capacity, workload.capacity_sigma)))
            capacity = max(1, min(capacity, 8))
        else:
            capacity = simulation.capacity
        vehicles.append(Vehicle(vehicle_id=vehicle_id, location=location, capacity=capacity))
    return vehicles
