"""End-to-end tests of the batch simulator and its metric accounting."""

from __future__ import annotations

import math

import pytest

from repro.config import SimulationConfig
from repro.dispatch import make_dispatcher
from repro.dispatch.base import DispatchResult, Dispatcher
from repro.exceptions import DispatchError
from repro.model.vehicle import Vehicle
from repro.network.shortest_path import DistanceOracle
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind
from repro.simulation.metrics import MetricsCollector


class _RejectEverything(Dispatcher):
    name = "reject-all"

    def dispatch(self, context):
        return DispatchResult(rejected=list(context.pending))


@pytest.fixture()
def small_sim_config() -> SimulationConfig:
    return SimulationConfig(gamma=1.6, max_wait=120.0, capacity=3, batch_period=5.0,
                            penalty_coefficient=10.0)


@pytest.fixture()
def small_world(grid_network, small_sim_config, make_request):
    """Six requests in two waves plus three vehicles."""
    requests = [
        make_request(1, 0, 4, release_time=1.0, gamma=1.6),
        make_request(2, 1, 5, release_time=2.0, gamma=1.6),
        make_request(3, 30, 34, release_time=3.0, gamma=1.6),
        make_request(4, 6, 10, release_time=11.0, gamma=1.6),
        make_request(5, 12, 16, release_time=12.0, gamma=1.6),
        make_request(6, 35, 31, release_time=13.0, gamma=1.6),
    ]
    vehicles = [
        Vehicle(vehicle_id=0, location=0),
        Vehicle(vehicle_id=1, location=31),
        Vehicle(vehicle_id=2, location=14),
    ]
    return grid_network, vehicles, requests


def _run(world, dispatcher, config):
    network, vehicles, requests = world
    simulator = Simulator(
        network=network,
        oracle=DistanceOracle(network),
        vehicles=[Vehicle(vehicle_id=v.vehicle_id, location=v.location,
                          capacity=v.capacity) for v in vehicles],
        requests=list(requests),
        dispatcher=dispatcher,
        config=config,
    )
    return simulator.run()


class TestAccounting:
    @pytest.mark.parametrize("algorithm", ["pruneGDP", "SARD", "GAS", "RTV"])
    def test_metrics_are_consistent(self, small_world, small_sim_config, algorithm):
        result = _run(small_world, make_dispatcher(algorithm), small_sim_config)
        metrics = result.metrics
        assert metrics.total_requests == 6
        assert 0 <= metrics.assigned_requests <= 6
        assert metrics.assigned_requests + metrics.expired_requests + \
            metrics.rejected_requests <= 6 + 6  # rejected and expired are disjoint
        assert metrics.completed_requests == metrics.assigned_requests
        assert metrics.unified_cost == pytest.approx(
            metrics.total_travel_time + metrics.penalty
        )
        assert 0.0 <= metrics.service_rate <= 1.0
        assert metrics.dispatch_seconds >= 0.0
        assert metrics.num_batches >= 1

    def test_every_assigned_request_is_completed(self, small_world, small_sim_config):
        result = _run(small_world, make_dispatcher("SARD"), small_sim_config)
        assigned_events = result.events.count(EventKind.REQUEST_ASSIGNED)
        completed_events = result.events.count(EventKind.REQUEST_COMPLETED)
        assert assigned_events == completed_events == result.metrics.assigned_requests

    def test_all_requests_released(self, small_world, small_sim_config):
        result = _run(small_world, make_dispatcher("pruneGDP"), small_sim_config)
        assert result.events.count(EventKind.REQUEST_RELEASED) == 6

    def test_unserved_requests_incur_direct_cost_penalty(self, small_world, small_sim_config):
        network, vehicles, requests = small_world
        result = _run(small_world, _RejectEverything(), small_sim_config)
        expected_penalty = small_sim_config.penalty_coefficient * sum(
            r.direct_cost for r in requests
        )
        assert result.metrics.penalty == pytest.approx(expected_penalty)
        assert result.metrics.service_rate == 0.0
        assert result.metrics.total_travel_time == 0.0

    def test_deterministic_across_runs(self, small_world, small_sim_config):
        first = _run(small_world, make_dispatcher("SARD"), small_sim_config)
        second = _run(small_world, make_dispatcher("SARD"), small_sim_config)
        assert first.service_rate == second.service_rate
        assert first.unified_cost == pytest.approx(second.unified_cost)

    def test_duplicate_ids_rejected(self, grid_network, small_sim_config, make_request):
        request = make_request(1, 0, 4)
        with pytest.raises(DispatchError):
            Simulator(
                network=grid_network,
                oracle=DistanceOracle(grid_network),
                vehicles=[Vehicle(vehicle_id=0, location=0), Vehicle(vehicle_id=0, location=1)],
                requests=[request],
                dispatcher=make_dispatcher("pruneGDP"),
                config=small_sim_config,
            )

    def test_summary_round_trip(self, small_world, small_sim_config):
        result = _run(small_world, make_dispatcher("pruneGDP"), small_sim_config)
        summary = result.summary()
        assert summary["total_requests"] == 6.0
        assert summary["service_rate"] == pytest.approx(result.service_rate)
        assert math.isfinite(summary["unified_cost"])


class TestMetricsCollector:
    def test_service_rate_with_no_requests(self):
        assert MetricsCollector().service_rate == 0.0

    def test_observe_memory_keeps_peak(self):
        metrics = MetricsCollector()
        metrics.observe_memory(100)
        metrics.observe_memory(50)
        assert metrics.peak_memory_bytes == 100

    def test_batch_records_accumulate_dispatch_time(self):
        from repro.simulation.metrics import BatchRecord

        metrics = MetricsCollector()
        metrics.record_batch(BatchRecord(0, 0.0, 3.0, 2, 1, 1, 0.5))
        metrics.record_batch(BatchRecord(1, 3.0, 6.0, 0, 0, 1, 0.25))
        assert metrics.num_batches == 2
        assert metrics.dispatch_seconds == pytest.approx(0.75)


class TestEventLog:
    def test_event_cap(self, monkeypatch):
        from repro.simulation.events import Event, EventLog

        monkeypatch.setattr(EventLog, "MAX_EVENTS", 2)
        log = EventLog()
        for i in range(5):
            log.record(Event(float(i), EventKind.REQUEST_RELEASED, i))
        assert len(log) == 2
        assert log.dropped == 3

    def test_of_kind_filter(self):
        from repro.simulation.events import Event, EventLog

        log = EventLog()
        log.record(Event(0.0, EventKind.REQUEST_RELEASED, 1))
        log.record(Event(1.0, EventKind.REQUEST_ASSIGNED, 1, 4))
        assert len(log.of_kind(EventKind.REQUEST_RELEASED)) == 1
        assert log.count(EventKind.REQUEST_ASSIGNED) == 1
