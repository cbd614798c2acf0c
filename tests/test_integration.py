"""Integration tests: whole-pipeline runs on small preset workloads."""

from __future__ import annotations

import sys

import pytest

from repro import Simulator, make_dispatcher, make_workload
from repro.config import ServiceConfig
from repro.dispatch import base
from repro.dispatch.base import DispatchContext, candidate_vehicles, feasible_insertions
from repro.dispatch.sard import SARDDispatcher
from repro.experiments.harness import RunSpec, run
from repro.model.batch import Batch
from repro.model.schedule import Schedule
from repro.model.vehicle import RouteState, Vehicle
from repro.network.grid_index import GridIndex
from repro.scenarios.events import VehicleShiftEnd, VehicleShiftStart
from repro.scenarios.timeline import Scenario
from repro.simulation import engine
from repro.simulation.events import Event, EventKind
from repro.workloads.presets import Workload


@pytest.fixture(scope="module")
def tiny_workload():
    """A small but non-trivial NYC-style workload shared across this module."""
    return make_workload(
        "nyc",
        city_scale=0.35,
        workload_overrides={"num_requests": 60, "num_vehicles": 25},
    )


def _simulate(workload, dispatcher):
    simulator = Simulator(
        network=workload.network,
        oracle=workload.fresh_oracle(),
        vehicles=workload.fresh_vehicles(),
        requests=list(workload.requests),
        dispatcher=dispatcher,
        config=workload.simulation_config,
    )
    return simulator.run()


class TestFullPipeline:
    @pytest.mark.parametrize(
        "algorithm", ["pruneGDP", "TicketAssign+", "DARM+DPRS", "RTV", "GAS", "SARD"]
    )
    def test_every_algorithm_completes_and_serves_requests(self, tiny_workload, algorithm):
        result = _simulate(tiny_workload, make_dispatcher(algorithm))
        metrics = result.metrics
        assert metrics.total_requests == 60
        assert metrics.assigned_requests > 0
        assert metrics.completed_requests == metrics.assigned_requests
        assert metrics.unified_cost == pytest.approx(
            metrics.total_travel_time + metrics.penalty
        )
        assert metrics.shortest_path_queries > 0
        summary = metrics.summary()
        assert summary["total_requests"] == (
            summary["assigned_requests"] + summary["expired_requests"]
            + summary["rejected_requests"] + summary["cancelled_requests"]
        )

    def test_batch_methods_do_not_lose_to_penalty_only_solution(self, tiny_workload):
        """Serving requests must beat serving nothing under the unified cost."""
        result = _simulate(tiny_workload, make_dispatcher("SARD"))
        do_nothing_cost = tiny_workload.simulation_config.penalty_coefficient * sum(
            r.direct_cost for r in tiny_workload.requests
        )
        assert result.unified_cost < do_nothing_cost

    def test_sard_competitive_with_online_baseline(self, tiny_workload):
        sard = _simulate(tiny_workload, make_dispatcher("SARD"))
        online = _simulate(tiny_workload, make_dispatcher("pruneGDP"))
        # The structure-aware batch method should serve at least as many
        # requests (the paper's headline claim, reproduced at small scale with
        # a little slack for discreteness).
        assert sard.metrics.assigned_requests >= online.metrics.assigned_requests - 2

    def test_angle_pruning_saves_queries_without_hurting_quality(self, tiny_workload):
        plain = _simulate(tiny_workload, SARDDispatcher.without_angle_pruning())
        pruned = _simulate(tiny_workload, SARDDispatcher.with_angle_pruning())
        assert pruned.metrics.shortest_path_queries <= plain.metrics.shortest_path_queries
        assert pruned.metrics.service_rate >= plain.metrics.service_rate - 0.1

    def test_vehicles_end_where_their_last_dropoff_was(self, tiny_workload):
        workload = tiny_workload
        vehicles = workload.fresh_vehicles()
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=vehicles,
            requests=list(workload.requests),
            dispatcher=make_dispatcher("SARD"),
            config=workload.simulation_config,
        )
        simulator.run()
        for vehicle in vehicles:
            assert vehicle.is_idle
            assert vehicle.onboard == 0
            if vehicle.completed:
                last_request, _ = vehicle.completed[-1]
                assert vehicle.location == last_request.destination

    def test_larger_fleet_serves_at_least_as_many(self):
        small = make_workload(
            "nyc", city_scale=0.35,
            workload_overrides={"num_requests": 60, "num_vehicles": 10},
        )
        large = make_workload(
            "nyc", city_scale=0.35,
            workload_overrides={"num_requests": 60, "num_vehicles": 40},
        )
        small_result = _simulate(small, make_dispatcher("SARD"))
        large_result = _simulate(large, make_dispatcher("SARD"))
        assert large_result.metrics.assigned_requests >= small_result.metrics.assigned_requests

    def test_cainiao_preset_with_relaxed_deadlines_serves_most_requests(self):
        workload = make_workload(
            "cainiao", city_scale=0.3,
            workload_overrides={"num_requests": 40, "num_vehicles": 25},
        )
        result = _simulate(workload, make_dispatcher("SARD"))
        assert result.service_rate >= 0.5


def _engine_events(monkeypatch) -> list[Event]:
    """Every event the engine emits while ``monkeypatch`` holds: a service
    run's simulator retains no log (the service keeps its own history)."""
    events: list[Event] = []
    emit = Simulator._emit

    def recording(simulator, when, kind, subject, other=None):
        events.append(Event(when, EventKind(kind), subject, other))
        emit(simulator, when, kind, subject, other)

    monkeypatch.setattr(Simulator, "_emit", recording)
    return events


class TestPlanSnapshotReuseIsInvisible:
    """Keeping a vehicle's snapshot, profile and insertion outcomes across
    ticks is an optimisation: a run that never keeps any is event-for-event
    the same, through rush-hour rebuilds included."""

    @pytest.mark.parametrize("algorithm", ["SARD", "pruneGDP"])
    def test_event_stream_equals_a_run_without_reuse(self, algorithm, monkeypatch):
        spec = RunSpec(
            preset="nyc", scale=0.1, scenario="rush_hour", algorithm=algorithm,
            service_config=ServiceConfig(),
        )
        with monkeypatch.context() as patch:
            kept_events = _engine_events(patch)
            kept = run(spec).simulation
        assert kept.metrics.oracle_rebuilds > 0

        route_state = Vehicle.route_state

        def always_fresh(vehicle, current_time):
            vehicle._snapshot = None
            return route_state(vehicle, current_time)

        monkeypatch.setattr(Vehicle, "route_state", always_fresh)
        monkeypatch.setattr(RouteState, "outcomes", lambda route, oracle: {})
        with monkeypatch.context() as patch:
            fresh_events = _engine_events(patch)
            fresh = run(spec).simulation
        assert fresh_events == kept_events
        assert any(event.kind is EventKind.REQUEST_COMPLETED for event in kept_events)
        assert fresh.unified_cost == kept.unified_cost
        # ... and the kept run did answer from its snapshots.
        assert kept.metrics.shortest_path_queries < fresh.metrics.shortest_path_queries


def _advance_the_whole_fleet(simulator: Simulator, until: float) -> None:
    """The obvious tick: every vehicle advances, every on-shift vehicle is
    re-indexed, every off-shift one removed."""
    for vehicle in simulator.vehicles:
        for request, drop_time in vehicle.advance_to(until, simulator.oracle):
            simulator._emit(
                drop_time, EventKind.REQUEST_COMPLETED,
                request.request_id, vehicle.vehicle_id,
            )
    for vehicle in simulator.vehicles:
        if vehicle.on_shift:
            x, y = simulator.network.position(vehicle.location)
            simulator._vehicle_index.move(vehicle.vehicle_id, x, y)
        else:
            simulator._vehicle_index.remove(vehicle.vehicle_id)
    # What the heap is documented to hold, recomputed from the fleet.
    simulator.run_state.due[:] = sorted(
        (vehicle.next_event_time(), position)
        for position, vehicle in enumerate(simulator.vehicles)
        if not vehicle.is_idle
    )


_SHIFT_IDS = (900_001, 900_002, 900_003)


def _shift_spec(algorithm: str) -> tuple[RunSpec, float, set[int]]:
    """A run whose fleet changes under it: three vehicles come on shift a
    third of the way in, and half the fleet (busy or not) clocks out half-way."""
    workload = make_workload("nyc", scale=0.1)
    horizon = max(request.release_time for request in workload.requests)
    starts = [
        (vehicle_id, request.source, 4)
        for vehicle_id, request in zip(_SHIFT_IDS, workload.requests[::7])
    ]
    ended = {vehicle.vehicle_id for vehicle in workload.fresh_vehicles()[::2]}
    scenario = Scenario(
        name="shifts",
        horizon=horizon,
        events_builder=lambda: [
            VehicleShiftStart(0.3 * horizon, starts),
            VehicleShiftEnd(0.5 * horizon, sorted(ended | {_SHIFT_IDS[0]})),
        ],
    )
    spec = RunSpec(
        workload=workload, scenario=scenario, algorithm=algorithm,
        service_config=ServiceConfig(),
    )
    return spec, 0.5 * horizon, ended


def _observe(spec: RunSpec, monkeypatch) -> tuple[list, dict, dict]:
    """Run ``spec``: its engine events, its summary without the wall-clock
    rows and its oracle's counters (the index invariant is checked per tick)."""
    oracles = []
    fresh_oracle = Workload.fresh_oracle

    def keeping(workload, **options):
        oracles.append(fresh_oracle(workload, **options))
        return oracles[-1]

    ticks = []

    def checked_context(**parts):
        # What every candidate query relies on: the index holds exactly
        # the context's fleet, each vehicle at its node's position.
        context = DispatchContext(**parts)
        index, network = context.vehicle_index, context.network
        assert sorted(index.keys()) == sorted(v.vehicle_id for v in context.vehicles)
        assert all(
            index.position(v.vehicle_id) == network.position(v.location)
            for v in context.vehicles
        )
        ticks.append(context.current_time)
        return context

    with monkeypatch.context() as patch:
        patch.setattr(Workload, "fresh_oracle", keeping)
        patch.setattr(engine, "DispatchContext", checked_context)
        events = _engine_events(patch)
        simulation = run(spec).simulation
    assert len(ticks) == simulation.metrics.num_batches > 0
    summary = {
        key: value for key, value in simulation.summary().items()
        if not key.endswith("seconds")
    }
    return events, summary, oracles[-1].stats.snapshot()


class TestTickCostsWhatChanged:
    """Driving the fleet from a heap of next-service times and re-indexing
    only the vehicles that moved is an optimisation: a run that advances and
    re-indexes the whole fleet on every tick is event-for-event the same."""

    def _assert_invisible(self, make_spec, monkeypatch) -> list:
        events, summary, counters = _observe(make_spec(), monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "_advance_vehicles", _advance_the_whole_fleet)
            obvious = _observe(make_spec(), monkeypatch)
        assert obvious[0] == events
        assert obvious[1] == summary
        assert obvious[2] == counters
        return events

    @pytest.mark.parametrize("scenario", [None, "rush_hour"])
    @pytest.mark.parametrize("algorithm", ["pruneGDP", "SARD", "DARM+DPRS"])
    def test_event_stream_equals_the_whole_fleet_tick(
        self, algorithm, scenario, monkeypatch
    ):
        dispatchers = []

        def make_spec():
            dispatchers.append(make_dispatcher(algorithm))
            return RunSpec(
                preset="nyc", scale=0.1, scenario=scenario,
                dispatcher=dispatchers[-1], service_config=ServiceConfig(),
            )

        events = self._assert_invisible(make_spec, monkeypatch)
        assert any(event.kind is EventKind.REQUEST_COMPLETED for event in events)
        if algorithm == "DARM+DPRS":
            # DARM moves idle vehicles (and the index) itself.
            assert dispatchers[0].repositioned > 0
            assert dispatchers[0].repositioned == dispatchers[1].repositioned

    @pytest.mark.parametrize("algorithm", ["pruneGDP", "SARD", "DARM+DPRS"])
    def test_shift_changes_are_followed(self, algorithm, monkeypatch):
        _, shift_end, ended = _shift_spec(algorithm)
        index_log: list = []
        move, clock_out = GridIndex.move, VehicleShiftEnd.apply

        def logged_move(index, key, x, y):
            index_log.append(key)
            move(index, key, x, y)

        def logged_clock_out(event, world):
            index_log.append("shift end")
            return clock_out(event, world)

        def make_spec():
            index_log.append("run")
            return _shift_spec(algorithm)[0]

        monkeypatch.setattr(GridIndex, "move", logged_move)
        monkeypatch.setattr(VehicleShiftEnd, "apply", logged_clock_out)
        events = self._assert_invisible(make_spec, monkeypatch)
        # A vehicle appended mid-run is dispatched to ...
        assert any(
            event.kind is EventKind.REQUEST_ASSIGNED and event.other in _SHIFT_IDS
            for event in events
        )
        # ... and one that clocked out with riders aboard keeps driving
        assert any(
            event.kind is EventKind.REQUEST_COMPLETED
            and event.other in ended and event.time > shift_end
            for event in events
        )
        # without ever being indexed again, in either run.
        assert index_log.count("run") == index_log.count("shift end") == 2
        clocked_out = False
        for entry in index_log:
            if entry in ("run", "shift end"):
                clocked_out = entry == "shift end"
            elif clocked_out:
                assert entry not in ended

    @pytest.mark.parametrize("algorithm", ["pruneGDP", "SARD"])
    def test_fleet_maps_equal_a_per_tick_rebuild(self, algorithm, monkeypatch):
        """The engine rebuilds its on-shift fleet and maps only at run start
        and on shift events; every dispatch must see what a rebuild from
        the fleet on that tick gives."""
        dispatch_batch, sizes = Simulator._dispatch_batch, []

        def checked(simulator, batch):
            state, fleet = simulator.run_state, simulator.vehicles
            on_shift = [vehicle for vehicle in fleet if vehicle.on_shift]
            assert len(state.on_shift) == len(on_shift)
            assert all(a is b for a, b in zip(state.on_shift, on_shift))
            assert state.on_shift_by_id == {v.vehicle_id: v for v in on_shift}
            assert state.on_shift_rank == {
                v.vehicle_id: rank for rank, v in enumerate(on_shift)
            }
            assert state.fleet_position == {
                v.vehicle_id: position for position, v in enumerate(fleet)
            }
            sizes.append(len(on_shift))
            return dispatch_batch(simulator, batch)

        monkeypatch.setattr(Simulator, "_dispatch_batch", checked)
        run(_shift_spec(algorithm)[0])
        # Dispatches before the shift start, between it and the shift end,
        # and after it.
        first = sizes[0]
        assert first + 3 in sizes and min(sizes) < first
        assert sizes.index(first + 3) < sizes.index(min(sizes))

    def test_an_idle_fleet_costs_nothing(self, monkeypatch):
        workload = make_workload("nyc", scale=0.1, workload_overrides={"num_vehicles": 200})
        simulator = Simulator(
            network=workload.network, oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(), requests=[],
            dispatcher=make_dispatcher("pruneGDP"), config=workload.simulation_config,
        )
        calls = {"move": 0, "advance_to": 0}
        move, advance_to = GridIndex.move, Vehicle.advance_to

        def counted_move(index, key, x, y):
            calls["move"] += 1
            move(index, key, x, y)

        def counted_advance_to(vehicle, time, oracle):
            calls["advance_to"] += 1
            return advance_to(vehicle, time, oracle)

        monkeypatch.setattr(GridIndex, "move", counted_move)
        monkeypatch.setattr(Vehicle, "advance_to", counted_advance_to)
        simulator.begin_run()
        for index in range(50):
            simulator.process_batch(Batch(index, 3.0 * index, 3.0 * index + 3.0, ()))
        simulator.end_run()
        assert calls == {"move": 200, "advance_to": 0}

    @pytest.mark.parametrize("algorithm", ["SARD", "pruneGDP"])
    def test_memory_estimate_equals_the_sum_over_the_fleet(self, algorithm, monkeypatch):
        """Idle vehicles are counted, not walked."""
        memory_estimate = Simulator._memory_estimate
        estimates = []

        def checked(simulator):
            estimates.append(memory_estimate(simulator))
            assert estimates[-1] == (
                simulator.dispatcher.estimated_memory_bytes()
                + simulator._vehicle_index.estimated_memory_bytes()
                + sum(v.estimated_memory_bytes() for v in simulator.vehicles)
            )
            return estimates[-1]

        monkeypatch.setattr(Simulator, "_memory_estimate", checked)
        result = run(RunSpec(
            preset="nyc", scale=0.1, algorithm=algorithm,
            service_config=ServiceConfig(),
        ))
        assert len(estimates) == result.simulation.metrics.num_batches + 1


def _ask_every_candidate(request, context, routes, max_candidates):
    """The obvious ``feasible_insertions``: prefetch the pick-up leg of every
    candidate route open at position 0 (the legs production prefetches),
    hand every candidate to the kernel.

    Not every candidate's leg: ``dijkstra`` learns a prefetched pair from a
    reverse search, whose sums may differ in the last ulp from the forward
    point query that would otherwise answer a pair the kernel reads later.
    """
    oracle = context.oracle
    offered = [
        routes[vehicle.vehicle_id]
        for vehicle in candidate_vehicles(request, context, max_candidates=max_candidates)
    ]
    oracle.prefetch(
        [route.origin for route in offered if not route.min_insert_position], (request.source,)
    )
    found = []
    for route in offered:
        outcome = base.best_insertion(route, request, oracle)
        if outcome.feasible:
            found.append((outcome, route.vehicle_id))
    return found


def _prefetch_every_candidate(request, context, routes, max_candidates):
    """``feasible_insertions`` after warming every candidate's pick-up leg,
    the driving routes' too (which the kernel never reads)."""
    offered = candidate_vehicles(request, context, max_candidates=max_candidates)
    context.oracle.prefetch(
        [routes[vehicle.vehicle_id].origin for vehicle in offered], (request.source,)
    )
    return feasible_insertions(request, context, routes, max_candidates)


def _replace_everywhere(patch, original, replacement) -> None:
    """Dispatchers import the shared functions by name, so every
    ``repro.dispatch`` module attribute that is ``original`` is replaced."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.dispatch"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, attr, replacement)


#: What the oracle did to answer; ``prefetch`` moves these, never an answer.
_ORACLE_EFFORT = ("oracle_searches", "oracle_settled_nodes", "oracle_fallback_queries")


class TestQueueBuildingAsksOnlyWhatItLacks:
    """``feasible_insertions`` answers a repeated offer from the driving
    vehicle's snapshot and prefetches only the legs the kernel reads: a run
    that prefetches and asks the kernel about every candidate is
    event-for-event the same, for every dispatcher that inserts."""

    @pytest.mark.parametrize("world", ["static", "rush_hour", "shifts"])
    @pytest.mark.parametrize("algorithm", ["SARD", "pruneGDP", "TicketAssign+", "DARM+DPRS"])
    def test_event_stream_equals_asking_every_candidate(self, algorithm, world, monkeypatch):
        def make_spec():
            if world == "shifts":
                return _shift_spec(algorithm)[0]
            return RunSpec(
                preset="nyc", scale=0.1, algorithm=algorithm,
                scenario=None if world == "static" else world,
                service_config=ServiceConfig(),
            )

        asked = []
        best_insertion = base.best_insertion

        def counted(route, request, oracle):
            asked[-1] += 1
            return best_insertion(route, request, oracle)

        monkeypatch.setattr(base, "best_insertion", counted)
        asked.append(0)
        events, summary, counters = _observe(make_spec(), monkeypatch)
        asked.append(0)
        with monkeypatch.context() as patch:
            _replace_everywhere(patch, base.feasible_insertions, _ask_every_candidate)
            obvious = _observe(make_spec(), monkeypatch)
        assert obvious[0] == events
        for key in summary:
            if key not in _ORACLE_EFFORT:
                assert obvious[1][key] == summary[key], key
        assert obvious[2]["queries"] == counters["queries"]
        if world == "rush_hour":
            assert summary["oracle_rebuilds"] > 0
        # ... and it really is less of the kernel wherever a request is
        # offered twice (pruneGDP and DARM answer each request once), and for
        # SARD's many repeated offers less of the backend too.
        assert asked[0] <= asked[1]
        if algorithm in ("SARD", "TicketAssign+"):
            assert asked[0] < asked[1]
        if algorithm == "SARD":
            assert counters["searches"] <= obvious[2]["searches"]

    @pytest.mark.parametrize("backend", ["ch", "hub_label"])
    @pytest.mark.parametrize("algorithm", ["SARD", "TicketAssign+"])
    def test_prefetching_every_candidate_is_invisible_on_label_joins(
        self, algorithm, backend, monkeypatch
    ):
        """A label join reads the same two labels whichever search filled
        the cache, so warming legs nobody reads changes no answer; on
        ``dijkstra`` / ``alt`` it may (see :func:`_ask_every_candidate`)."""
        def make_spec():
            return RunSpec(
                preset="nyc", scale=0.1, algorithm=algorithm, backend=backend,
                service_config=ServiceConfig(),
            )

        events, summary, counters = _observe(make_spec(), monkeypatch)
        with monkeypatch.context() as patch:
            _replace_everywhere(patch, feasible_insertions, _prefetch_every_candidate)
            warmed = _observe(make_spec(), monkeypatch)
        assert warmed[0] == events
        for key in summary:
            if key not in _ORACLE_EFFORT:
                assert warmed[1][key] == summary[key], key
        assert warmed[2]["queries"] == counters["queries"]
        # The driving routes' legs were really asked of the backend.
        assert warmed[2]["searches"] > counters["searches"]

    def test_a_repeated_offer_to_an_unchanged_driving_fleet_asks_nothing(
        self, make_request, make_context, oracle, monkeypatch
    ):
        # Two vehicles under way to a pick-up, each passing one request's
        # trip; two idle ones that can reach nobody in time.
        aboard = [make_request(90, 0, 5), make_request(91, 30, 35)]
        vehicles = [
            Vehicle(vehicle_id=0, location=6), Vehicle(vehicle_id=1, location=24),
            Vehicle(vehicle_id=2, location=14), Vehicle(vehicle_id=3, location=20),
        ]
        for vehicle, rider in zip(vehicles, aboard):
            vehicle.assign_schedule(Schedule.direct(rider), [rider], 0.0)
            vehicle.advance_to(1.0, oracle)
        pending = [
            make_request(1, 1, 4, release_time=1.0, gamma=2.0),
            make_request(2, 31, 34, release_time=1.0, gamma=2.0),
            make_request(3, 2, 33, release_time=1.0, gamma=1.05),
        ]
        asked = []
        best_insertion = base.best_insertion

        def logged(route, request, oracle):
            asked.append((route.vehicle_id, request.request_id))
            return best_insertion(route, request, oracle)

        monkeypatch.setattr(base, "best_insertion", logged)

        def queues(now):
            context = make_context(vehicles, pending, current_time=now)
            routes = context.working_routes()
            return [
                [
                    (outcome.delta_cost, vehicle_id)
                    for outcome, vehicle_id in feasible_insertions(r, context, routes, None)
                ]
                for r in pending
            ]

        first = queues(2.0)
        refused_idle = [pair for pair in asked if pair[0] >= 2]
        assert {(0, 1), (1, 2), (2, 1), (3, 2)} <= set(asked)
        assert first == [[(0.0, 0)], [(0.0, 1)], []]
        del asked[:]
        before = oracle.stats.snapshot()
        again = queues(3.0)
        # The driving pair answers from its snapshots; the idle pair departs
        # at the new tick time and is asked again (and refuses again), by design.
        assert asked == refused_idle
        assert oracle.stats.snapshot()["searches"] == before["searches"]
        assert again == first

        # With the idle pair off shift nothing reaches the kernel or the oracle.
        del asked[:], vehicles[2:]
        before = oracle.stats.snapshot()
        assert queues(4.0) == first
        assert asked == [] and oracle.stats.snapshot() == before
