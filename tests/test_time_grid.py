"""Every time the dispatch path adds or compares is on the 2^-10 s grid.

Four writers put times on the grid (``RoadNetwork.add_edge``, ``Request``,
``SimulationConfig.batch_period`` and ``ChaosOracle``'s corrupted answers);
everything else is sums and differences of grid values, which float64 adds
exactly.  These tests check the writers, the exactness of the
sums, and -- over whole generated runs on every backend, world and fault
mode -- that nothing off the grid reaches a batch boundary or a priced route.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ChaosConfig, ServiceConfig, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.harness import RunSpec, run
from repro.model import vehicle as vehicle_module
from repro.model.request import Request
from repro.network.road_network import RoadNetwork
from repro.numeric import TIME_GRID, to_grid
from repro.resilience.faults import ChaosOracle
from repro.simulation.engine import Simulator

from test_integration import _shift_spec


def on_grid(value: float) -> bool:
    return math.isinf(value) or value % TIME_GRID == 0


class TestWriters:
    def test_to_grid_rounds_the_asked_way_and_keeps_grid_values(self):
        assert to_grid(1.0001, up=True) == 1 + TIME_GRID
        assert to_grid(1.0001, up=False) == 1.0
        assert to_grid(-1.0001, up=True) == -1.0
        assert to_grid(3.25, up=True) == to_grid(3.25, up=False) == 3.25
        assert to_grid(math.inf, up=False) == math.inf
        assert to_grid(-math.inf, up=True) == -math.inf
        assert to_grid(2.0 ** 50 + 2.0, up=True) == 2.0 ** 50 + 2.0

    def test_edge_weights_are_rounded_up(self):
        network = RoadNetwork()
        for node in range(3):
            network.add_node(node, node * 100.0, 0.0)
        network.add_edge(0, 1, 0.1, bidirectional=True)
        network.add_edge(1, 2, 7.0)
        assert network.edge_cost(0, 1) == network.edge_cost(1, 0) == 103 * TIME_GRID
        assert network.edge_cost(1, 2) == 7.0

    def test_request_times_are_rounded_towards_feasibility(self):
        request = Request(
            release_time=0.1, request_id=1, source=0, destination=1,
            deadline=9.9, direct_cost=0.1, max_wait=0.1,
        )
        assert request.release_time == 103 * TIME_GRID
        assert request.deadline == 10137 * TIME_GRID
        assert request.direct_cost == 103 * TIME_GRID
        assert request.max_wait == 102 * TIME_GRID
        assert request.latest_pickup == 205 * TIME_GRID
        assert request.release_time >= 0.1 and request.deadline <= 9.9

    def test_a_window_holding_no_grid_instant_expires_on_release(self):
        # 0.1 s is 102.4 grid steps: the release rounds up to 103 and the
        # deadline down to 102, so no pick-up on the grid is on time.
        request = Request(release_time=0.1, request_id=1, source=0, destination=1, deadline=0.1)
        assert request.deadline == 102 * TIME_GRID < request.release_time == 103 * TIME_GRID
        assert request.latest_pickup < request.release_time
        assert request.is_expired(request.release_time)
        with pytest.raises(ConfigurationError):
            Request(release_time=0.1, request_id=1, source=0, destination=1, deadline=0.0999)
        on_grid_window = Request(release_time=0.25, request_id=1, source=0, destination=1, deadline=0.25)
        assert on_grid_window.latest_pickup == on_grid_window.release_time == 0.25

    def test_an_off_grid_batch_period_is_put_on_the_grid(self):
        assert SimulationConfig(batch_period=0.1).batch_period == 103 * TIME_GRID
        assert SimulationConfig(batch_period=3.0).batch_period == 3.0


@given(
    weights=st.lists(
        st.integers(min_value=0, max_value=2 ** 30).map(lambda k: k * TIME_GRID),
        min_size=1, max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
@settings(max_examples=300, deadline=None)
def test_a_permuted_sum_of_grid_weights_is_bit_identical(weights, seed):
    shuffled = list(weights)
    random.Random(seed).shuffle(shuffled)
    assert sum(shuffled) == sum(weights) == math.fsum(weights)


_CHAOS = ChaosConfig(corruption_rate=0.5, corruption_factor=0.6)

#: World name -> RunSpec fields beyond the backend; ``shifts`` is built by
#: ``test_integration._shift_spec``.
_WORLDS = {
    "static": {},
    "rush_hour": {"scenario": "rush_hour", "refresh_policy": "repair"},
    "fallback": {"scenario": "rush_hour", "refresh_policy": "coalesce"},
    "chaos": {"scenario": "rush_hour", "chaos": _CHAOS},
    "shifts": None,
}


@pytest.mark.parametrize("world", sorted(_WORLDS))
@pytest.mark.parametrize("backend", ["dijkstra", "ch", "hub_label"])
def test_a_generated_run_stays_on_the_grid(world, backend, monkeypatch):
    """Edge weights (also as scenarios rewrite them), request times, batch
    boundaries and every clock and leg of every priced route."""
    weights, boundaries, requests, profiles, answers = [], [], [], [], []
    oracles = []
    add_edge, process_batch = RoadNetwork.add_edge, Simulator.process_batch
    price_route, chaos_cost = vehicle_module._price_route, ChaosOracle.cost

    def recording_add_edge(network, u, v, cost, **options):
        add_edge(network, u, v, cost, **options)
        weights.append(network.edge_cost(u, v))

    def recording_process_batch(simulator, batch):
        boundaries.extend((batch.start_time, batch.end_time))
        requests.extend(batch.requests)
        oracles.append(simulator.oracle)
        if not weights:
            weights.extend(w for _, _, w in simulator.network.edges())
        return process_batch(simulator, batch)

    def recording_price_route(route, oracle):
        profiles.append(price_route(route, oracle))
        return profiles[-1]

    def recording_chaos_cost(oracle, source, target):
        answers.append((oracle.corrupted, chaos_cost(oracle, source, target)))
        return answers[-1][1]

    monkeypatch.setattr(RoadNetwork, "add_edge", recording_add_edge)
    monkeypatch.setattr(Simulator, "process_batch", recording_process_batch)
    monkeypatch.setattr(vehicle_module, "_price_route", recording_price_route)
    monkeypatch.setattr(ChaosOracle, "cost", recording_chaos_cost)
    if world == "shifts":
        spec = _shift_spec("SARD", backend)[0]
    else:
        spec = RunSpec(
            preset="nyc", scale=0.1, algorithm="pruneGDP" if world == "chaos" else "SARD",
            backend=backend, service_config=ServiceConfig(), **_WORLDS[world],
        )
    run(spec)

    assert weights and all(on_grid(w) for w in weights)
    assert requests and all(
        on_grid(t)
        for r in requests
        for t in (r.release_time, r.deadline, r.direct_cost, r.max_wait, r.latest_pickup)
    )
    assert boundaries and all(on_grid(t) for t in boundaries)
    assert profiles
    for profile in profiles:
        for values in (profile.legs, profile.clock_at, profile.travel_at, profile.latest):
            assert all(on_grid(value) for value in values)
    if world == "fallback":
        assert oracles[-1].stats.fallback_queries > 0
    if world == "chaos":
        assert any(corrupted for corrupted, _ in answers)
        assert all(on_grid(answer) for _, answer in answers)
