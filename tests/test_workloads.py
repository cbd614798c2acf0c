"""Tests for the synthetic workload generators and presets."""

from __future__ import annotations

import math

import pytest

from repro.config import SimulationConfig, WorkloadConfig
from repro.exceptions import WorkloadError
from repro.network.generators import grid_city
from repro.network.shortest_path import DistanceOracle
from repro.numeric import TIME_GRID
from repro.workloads.presets import WORKLOAD_PRESETS, make_workload
from repro.workloads.requests_gen import RequestGenerator, generate_vehicles


@pytest.fixture()
def small_city():
    return grid_city(10, 10, block_length=150.0, perturbation=0.1, seed=4)


@pytest.fixture()
def workload_config() -> WorkloadConfig:
    return WorkloadConfig(num_requests=60, num_vehicles=10, arrival_rate=1.0,
                          trip_log_mean=math.log(90.0), trip_log_sigma=0.4,
                          num_hotspots=3, hotspot_fraction=0.6, seed=5)


class TestRequestGenerator:
    def test_generates_requested_count_sorted_by_release(self, small_city, workload_config):
        oracle = DistanceOracle(small_city)
        generator = RequestGenerator(small_city, oracle, workload_config, SimulationConfig())
        requests = generator.generate()
        assert len(requests) == 60
        releases = [r.release_time for r in requests]
        assert releases == sorted(releases)
        assert all(0 <= t <= workload_config.effective_horizon for t in releases)

    def test_requests_are_well_formed(self, small_city, workload_config):
        oracle = DistanceOracle(small_city)
        config = SimulationConfig(gamma=1.5, max_wait=120.0)
        requests = RequestGenerator(small_city, oracle, workload_config, config).generate()
        for request in requests:
            assert request.source != request.destination
            assert request.direct_cost == oracle.cost(request.source, request.destination)
            # The deadline is ``release + gamma * direct`` of the drawn release
            # time, rounded down; the release was rounded up, by less than a step.
            latest = request.release_time + config.gamma * request.direct_cost
            assert latest - 2 * TIME_GRID < request.deadline <= latest
            assert request.deadline % TIME_GRID == request.release_time % TIME_GRID == 0
            assert request.riders >= 1
            assert request.max_wait == config.max_wait

    def test_unique_ids(self, small_city, workload_config):
        oracle = DistanceOracle(small_city)
        requests = RequestGenerator(small_city, oracle, workload_config,
                                    SimulationConfig()).generate()
        ids = [r.request_id for r in requests]
        assert len(ids) == len(set(ids))

    def test_deterministic_for_seed(self, small_city, workload_config):
        oracle = DistanceOracle(small_city)
        first = RequestGenerator(small_city, oracle, workload_config, SimulationConfig()).generate()
        second = RequestGenerator(small_city, oracle, workload_config, SimulationConfig()).generate()
        assert [(r.source, r.destination, r.release_time) for r in first] == [
            (r.source, r.destination, r.release_time) for r in second
        ]

    def test_trip_lengths_have_plausible_spread(self, small_city, workload_config):
        oracle = DistanceOracle(small_city)
        requests = RequestGenerator(small_city, oracle, workload_config,
                                    SimulationConfig()).generate()
        costs = [r.direct_cost for r in requests]
        assert min(costs) > 0
        assert max(costs) > min(costs)


class TestVehicleGeneration:
    def test_uniform_capacity_by_default(self, small_city, workload_config):
        vehicles = generate_vehicles(small_city, workload_config, SimulationConfig(capacity=4))
        assert len(vehicles) == 10
        assert {v.capacity for v in vehicles} == {4}
        assert all(v.location in small_city for v in vehicles)

    def test_capacity_sigma_spreads_capacities(self, small_city, workload_config):
        noisy = workload_config.with_overrides(capacity_sigma=1.5, num_vehicles=60)
        vehicles = generate_vehicles(small_city, noisy, SimulationConfig(capacity=4))
        capacities = {v.capacity for v in vehicles}
        assert len(capacities) > 1
        assert all(1 <= c <= 8 for c in capacities)

    def test_fleet_does_not_depend_on_the_trace_size(self, small_city, workload_config):
        # The fleet draws from a stream of its own, seeded apart from the trace's.
        longer = workload_config.with_overrides(num_requests=240)
        first = generate_vehicles(small_city, workload_config, SimulationConfig())
        second = generate_vehicles(small_city, longer, SimulationConfig())
        assert [(v.vehicle_id, v.location, v.capacity) for v in first] == [
            (v.vehicle_id, v.location, v.capacity) for v in second
        ]

    def test_fleet_follows_the_seed(self, small_city, workload_config):
        first = generate_vehicles(small_city, workload_config, SimulationConfig())
        again = generate_vehicles(small_city, workload_config, SimulationConfig())
        other = generate_vehicles(
            small_city, workload_config.with_overrides(seed=6), SimulationConfig()
        )
        assert [v.location for v in first] == [v.location for v in again]
        assert [v.location for v in first] != [v.location for v in other]

    def test_unique_vehicle_ids(self, small_city, workload_config):
        vehicles = generate_vehicles(small_city, workload_config, SimulationConfig())
        ids = [v.vehicle_id for v in vehicles]
        assert len(ids) == len(set(ids))


class TestPresets:
    def test_all_presets_build(self):
        for name in WORKLOAD_PRESETS:
            workload = make_workload(name, scale=0.02, vehicle_scale=0.1, city_scale=0.3)
            assert workload.num_requests > 0
            assert workload.network.num_nodes > 0
            assert workload.fresh_vehicles()

    def test_scale_changes_requests_not_vehicles(self):
        small = make_workload("nyc", scale=0.02, city_scale=0.3)
        large = make_workload("nyc", scale=0.04, city_scale=0.3)
        assert large.num_requests > small.num_requests
        assert (
            large.workload_config.num_vehicles == small.workload_config.num_vehicles
        )

    def test_overrides_apply(self):
        workload = make_workload(
            "nyc", city_scale=0.3,
            workload_overrides={"num_requests": 17, "num_vehicles": 3},
            simulation_overrides={"gamma": 1.9},
        )
        assert workload.num_requests == 17
        assert len(workload.fresh_vehicles()) == 3
        assert workload.simulation_config.gamma == 1.9

    def test_unknown_preset_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("gotham")

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("nyc", scale=0.0)

    def test_fresh_vehicles_are_independent(self):
        workload = make_workload("nyc", scale=0.02, city_scale=0.3)
        first = workload.fresh_vehicles()
        second = workload.fresh_vehicles()
        assert first is not second
        assert [v.location for v in first] == [v.location for v in second]

    def test_fresh_oracle_has_clean_stats(self):
        workload = make_workload("nyc", scale=0.02, city_scale=0.3)
        oracle = workload.fresh_oracle()
        assert oracle.stats.queries == 0
