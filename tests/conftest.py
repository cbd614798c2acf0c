"""Shared fixtures for the test suite.

The fixtures build small, fully deterministic instances: a jitter-free grid
city, a distance oracle over it, request/vehicle factories, a helper that
assembles a :class:`~repro.dispatch.base.DispatchContext` the way the
simulator does and the one checker of a dispatcher's assignments.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.dispatch.base import DispatchContext, DispatchResult
from repro.model.batch import Batch
from repro.model.request import Request
from repro.model.vehicle import Vehicle
from repro.network.generators import grid_city
from repro.network.grid_index import GridIndex
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import DistanceOracle


@pytest.fixture()
def line_network() -> RoadNetwork:
    """Five nodes on a line, 10 seconds between neighbours."""
    network = RoadNetwork()
    for node in range(5):
        network.add_node(node, node * 100.0, 0.0)
    for node in range(4):
        network.add_edge(node, node + 1, 10.0, bidirectional=True)
    return network


@pytest.fixture()
def grid_network() -> RoadNetwork:
    """A deterministic 6x6 grid city (no travel-time jitter)."""
    return grid_city(6, 6, block_length=100.0, speed=10.0, perturbation=0.0, seed=1)


@pytest.fixture()
def oracle(grid_network: RoadNetwork) -> DistanceOracle:
    """Distance oracle over the deterministic grid city."""
    return DistanceOracle(grid_network)


@pytest.fixture()
def line_oracle(line_network: RoadNetwork) -> DistanceOracle:
    """Distance oracle over the line network."""
    return DistanceOracle(line_network)


@pytest.fixture()
def config() -> SimulationConfig:
    """Default simulation configuration used by most tests."""
    return SimulationConfig(gamma=1.5, max_wait=120.0, capacity=3, batch_period=5.0)


@pytest.fixture()
def make_request(oracle: DistanceOracle, config: SimulationConfig):
    """Factory building requests on the grid city with correct direct costs."""

    def _make(
        request_id: int,
        source: int,
        destination: int,
        release_time: float = 0.0,
        *,
        riders: int = 1,
        gamma: float | None = None,
        max_wait: float | None = None,
    ) -> Request:
        return Request.create(
            request_id=request_id,
            source=source,
            destination=destination,
            release_time=release_time,
            direct_cost=oracle.cost(source, destination),
            gamma=gamma if gamma is not None else config.gamma,
            max_wait=max_wait if max_wait is not None else config.max_wait,
            riders=riders,
        )

    return _make


@pytest.fixture()
def make_line_request(line_oracle: DistanceOracle, config: SimulationConfig):
    """Factory building requests on the line network."""

    def _make(
        request_id: int,
        source: int,
        destination: int,
        release_time: float = 0.0,
        *,
        riders: int = 1,
        gamma: float | None = None,
        max_wait: float | None = None,
    ) -> Request:
        return Request.create(
            request_id=request_id,
            source=source,
            destination=destination,
            release_time=release_time,
            direct_cost=line_oracle.cost(source, destination),
            gamma=gamma if gamma is not None else config.gamma,
            max_wait=max_wait if max_wait is not None else config.max_wait,
            riders=riders,
        )

    return _make


@pytest.fixture()
def make_context(grid_network: RoadNetwork, oracle: DistanceOracle, config: SimulationConfig):
    """Factory assembling a DispatchContext like the simulator does."""

    def _make(
        vehicles: list[Vehicle],
        pending: list[Request],
        *,
        current_time: float = 10.0,
        batch_requests: list[Request] | None = None,
        sim_config: SimulationConfig | None = None,
    ) -> DispatchContext:
        cfg = sim_config or config
        index = GridIndex.for_network(grid_network)
        for vehicle in vehicles:
            x, y = grid_network.position(vehicle.location)
            index.insert(vehicle.vehicle_id, x, y)
        batch = Batch(
            index=0,
            start_time=max(current_time - cfg.batch_period, 0.0),
            end_time=current_time,
            requests=tuple(batch_requests if batch_requests is not None else pending),
        )
        return DispatchContext(
            current_time=current_time,
            batch=batch,
            pending=list(pending),
            vehicles=vehicles,
            network=grid_network,
            oracle=oracle,
            vehicle_index=index,
            config=cfg,
            average_speed=10.0,
        )

    return _make


@pytest.fixture()
def check_assignments():
    """Checker of one dispatch: every new schedule is feasible from its
    vehicle's route state and no request is assigned twice."""

    def _check(result: DispatchResult, context: DispatchContext) -> None:
        seen: set[int] = set()
        for assignment in result.assignments:
            vehicle = context.vehicles_by_id[assignment.vehicle_id]
            state = vehicle.route_state(context.current_time)
            evaluation = assignment.schedule.evaluate(
                context.oracle, state.origin, state.departure_time,
                capacity=vehicle.capacity, initial_load=vehicle.onboard,
            )
            assert evaluation.feasible
            ids = assignment.new_request_ids
            assert not (ids & seen), "a request was assigned to two vehicles"
            seen |= ids

    return _check
