"""End-to-end tests of the batch simulator and its metric accounting."""

from __future__ import annotations

import math

import pytest

from repro.config import SimulationConfig
from repro.dispatch import DISPATCHER_REGISTRY, make_dispatcher
from repro.dispatch.base import Assignment, DispatchResult, Dispatcher, Refusal
from repro.dispatch.darm import DARMDispatcher
from repro.exceptions import DispatchError
from repro.model.batch import Batch
from repro.model.schedule import Schedule
from repro.model.vehicle import Vehicle
from repro.network.shortest_path import DistanceOracle
from repro.scenarios import make_scenario_workload
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


# --------------------------------------------------------------------------- #
# The engine is the one writer of a run's state.
# --------------------------------------------------------------------------- #
_EXIT_COUNTERS = {
    EventKind.REQUEST_ASSIGNED: "assigned_requests",
    EventKind.REQUEST_REJECTED: "rejected_requests",
    EventKind.REQUEST_EXPIRED: "expired_requests",
    EventKind.REQUEST_CANCELLED: "cancelled_requests",
}


class TestEveryRequestLeavesThePoolOnce:
    """No lost rider at the pool: a released request leaves it exactly once,
    assigned, rejected, expired or cancelled, and what it leaves behind is
    counted and charged as it left."""

    @pytest.mark.parametrize("scenario", [None, "stadium_surge"])
    @pytest.mark.parametrize("algorithm", ["SARD", "pruneGDP"])
    def test_each_request_exits_once_and_is_accounted_for(
        self, algorithm, scenario, monkeypatch
    ):
        # At this size a rider cancels while still pending, in both runs.
        workload, built = make_scenario_workload(
            "nyc", "stadium_surge", scale=0.1, city_scale=0.35
        )
        simulator = Simulator(
            network=workload.network, oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(), requests=list(workload.requests),
            dispatcher=make_dispatcher(algorithm), config=workload.simulation_config,
            timeline=built.make_timeline() if scenario else None,
        )
        process_batch, batches = Simulator.process_batch, []

        def checked(sim, batch):
            record = process_batch(sim, batch)
            state = sim.run_state
            assert set(state.refusals) <= set(state.pending)
            batches.append(batch.index)
            return record

        monkeypatch.setattr(Simulator, "process_batch", checked)
        result = simulator.run()
        assert batches
        by_id = {request.request_id: request for request in workload.requests}
        released: dict[int, int] = {}
        exits: dict[int, list[tuple[int, EventKind]]] = {rid: [] for rid in by_id}
        penalty = 0.0
        coefficient = workload.simulation_config.penalty_coefficient
        for position, event in enumerate(result.events):
            if event.kind is EventKind.REQUEST_RELEASED:
                assert event.subject not in released
                released[event.subject] = position
            elif event.kind in _EXIT_COUNTERS:
                exits[event.subject].append((position, event.kind))
                if event.kind in (EventKind.REQUEST_REJECTED, EventKind.REQUEST_EXPIRED):
                    penalty += coefficient * by_id[event.subject].direct_cost
        assert set(released) == set(by_id)
        for rid, left in exits.items():
            assert len(left) == 1, (rid, left)
            assert left[0][0] > released[rid]
        metrics = result.metrics
        for kind, counter in _EXIT_COUNTERS.items():
            assert getattr(metrics, counter) == result.events.count(kind), counter
        assert metrics.penalty == penalty
        assert metrics.total_requests == len(by_id)
        # Across the four cells every way out is taken.
        kinds = {kind for left in exits.values() for _, kind in left}
        assert EventKind.REQUEST_ASSIGNED in kinds
        assert (EventKind.REQUEST_CANCELLED in kinds) == (scenario is not None)
        unplaced = EventKind.REQUEST_EXPIRED if algorithm == "SARD" else EventKind.REQUEST_REJECTED
        assert unplaced in kinds


def _fleet_state(vehicles, index):
    return (
        [(v.location, v._clock, tuple(v.schedule), v.onboard, v.total_travel_time, v.on_shift)
         for v in vehicles],
        {key: index.position(key) for key in index.keys()},
    )


@pytest.mark.parametrize("name", sorted(DISPATCHER_REGISTRY))
def test_no_dispatcher_changes_the_fleet(name, make_request, make_context, monkeypatch):
    """A dispatcher returns what should happen; the engine makes it happen."""
    monkeypatch.setattr(DARMDispatcher, "reposition_fraction", 1.0)
    monkeypatch.setattr(DARMDispatcher, "reposition_period", 0.0)
    busy = Vehicle(vehicle_id=3, location=20)
    rider = make_request(9, 20, 23, release_time=0.0)
    busy.assign_schedule(Schedule.direct(rider), [rider], 0.0)
    vehicles = [Vehicle(vehicle_id=0, location=0), busy, Vehicle(vehicle_id=7, location=35)]
    requests = [make_request(i, 0, 4, release_time=5.0) for i in (1, 2, 3, 4)]
    context = make_context(vehicles, requests, current_time=6.0)
    before = _fleet_state(vehicles, context.vehicle_index)
    result = make_dispatcher(name).dispatch(context)
    assert result.assignments
    assert _fleet_state(vehicles, context.vehicle_index) == before
    assert bool(result.repositions) == (name == "DARM+DPRS")


class _Scripted(Dispatcher):
    name = "scripted"

    def __init__(self, moves, assignments=()):
        super().__init__()
        self.moves = moves
        self.assignments = assignments

    def dispatch(self, context):
        return DispatchResult(
            assignments=list(self.assignments), repositions=list(self.moves)
        )


class TestRepositionsAreTheEngines:
    def _simulator(self, grid_network, moves, vehicles, assignments=()):
        simulator = Simulator(
            network=grid_network, oracle=DistanceOracle(grid_network), vehicles=vehicles,
            requests=[], dispatcher=_Scripted(moves, assignments), config=SimulationConfig(),
        )
        simulator.begin_run()
        return simulator

    def test_a_returned_reposition_moves_the_vehicle_and_touches_both_nodes(
        self, grid_network, make_request
    ):
        vehicles = [Vehicle(vehicle_id=vid, location=0) for vid in range(3)]
        travel = DistanceOracle(grid_network).cost(0, 35)
        simulator = self._simulator(grid_network, [(1, 35, travel)], vehicles)
        refusals = simulator.run_state.refusals
        for rid, node in enumerate((0, 35, 14)):
            x, y = grid_network.position(node)
            refusals[rid] = Refusal(0.0, 0, None, x, y, 1.0, -math.inf)
        waiting = make_request(9, 20, 23, release_time=1.0)
        simulator.process_batch(Batch(0, 0.0, 5.0, (waiting,)))
        moved = vehicles[1]
        assert moved.location == 35 and moved.is_idle
        assert moved.total_travel_time == travel and moved._clock == 5.0 + travel
        assert simulator._vehicle_index.position(1) == grid_network.position(35)
        assert [v.location for v in vehicles] == [0, 35, 0]
        assert set(refusals) == {2}

    @pytest.mark.parametrize("vehicle_id", [99, 2])
    def test_a_reposition_of_a_vehicle_not_on_shift_is_refused(
        self, grid_network, make_request, vehicle_id
    ):
        vehicles = [Vehicle(vehicle_id=vid, location=0) for vid in range(3)]
        vehicles[2].on_shift = False
        simulator = self._simulator(grid_network, [(vehicle_id, 35, 10.0)], vehicles)
        waiting = make_request(9, 20, 23, release_time=1.0)
        with pytest.raises(DispatchError, match=f"repositioned unknown vehicle {vehicle_id}"):
            simulator.process_batch(Batch(0, 0.0, 5.0, (waiting,)))
        assert vehicles[2].location == 0 and 2 not in simulator._vehicle_index

    @pytest.mark.parametrize("vehicle_id", [99, 2])
    def test_an_assignment_to_a_vehicle_not_on_shift_is_refused(
        self, grid_network, make_request, vehicle_id
    ):
        vehicles = [Vehicle(vehicle_id=vid, location=0) for vid in range(3)]
        vehicles[2].on_shift = False
        waiting = make_request(9, 20, 23, release_time=1.0)
        assignment = Assignment(vehicle_id, Schedule.direct(waiting), (waiting,))
        simulator = self._simulator(grid_network, [], vehicles, [assignment])
        with pytest.raises(DispatchError, match=f"assigned to unknown vehicle {vehicle_id}"):
            simulator.process_batch(Batch(0, 0.0, 5.0, (waiting,)))
        assert vehicles[2].is_idle and 9 in simulator.run_state.pending
