"""Tests for the dynamic-world scenario engine.

Covers the event vocabulary, the timeline, the refresh policies, the
generator's surge modulation, the scenario presets and the full simulator
integration (including the acceptance property: cost parity with a fresh
Dijkstra and zero closed edges in paths after every event of a
``bridge_closure`` run on the preprocessed backends).
"""

from __future__ import annotations

import inspect
import math
import random

import pytest

from repro.config import (
    REFRESH_POLICIES,
    DemandSurge,
    ScenarioConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.dispatch import make_dispatcher
from repro.exceptions import ConfigurationError, DispatchError, ScenarioError
from repro.model.batch import Batch
from repro.network.generators import grid_city
from repro.network import shortest_path
from repro.network.routing import ContractionHierarchy, routing_data
from repro.network.shortest_path import DistanceOracle
from repro.numeric import to_grid
from repro.observability import tracing
from repro.scenarios import (
    CancelRequests,
    CloseEdges,
    ReopenEdges,
    RestoreEdges,
    ScaleEdges,
    ScenarioTimeline,
    VehicleShiftEnd,
    VehicleShiftStart,
    WorldView,
    corridor_edges,
    make_refresh_policy,
    make_scenario,
    make_scenario_workload,
    traffic_wave,
    zone_edges,
)
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind
from repro.workloads.presets import make_workload
from repro.workloads.requests_gen import RequestGenerator


@pytest.fixture()
def city():
    return grid_city(
        6, 6, block_length=150.0, perturbation=0.15, express_fraction=0.03, seed=2
    )


def _world(network, **overrides) -> WorldView:
    defaults = dict(
        now=10.0,
        network=network,
        oracle=None,
        vehicles=[],
        vehicles_by_id={},
    )
    defaults.update(overrides)
    return WorldView(**defaults)


class TestWorldEvents:
    def test_scale_edges_multiplies_costs(self, city):
        (u, v, cost) = next(iter(city.edges()))
        world = _world(city)
        mutations = ScaleEdges(5.0, [(u, v)], 2.5, bidirectional=False).apply(world)
        assert mutations == 1
        assert city.edge_cost(u, v) == pytest.approx(cost * 2.5)

    def test_traffic_wave_restores_free_flow_exactly(self, city):
        edges = zone_edges(city, *city.position(0), 400.0)
        before = {e: city.edge_cost(*e) for e in edges}
        slowdown, recovery = traffic_wave(edges, 1.8, 10.0, 50.0)
        world = _world(city)
        slowdown.apply(world)
        assert city.edge_cost(*edges[0]) == to_grid(before[edges[0]] * 1.8, up=True)
        recovery.apply(world)
        # Exact bit-for-bit restore (the recovery replays the remembered
        # costs; an inverse multiplication would leave ulp drift on the
        # shared network run after run).
        for e, cost in before.items():
            assert city.edge_cost(*e) == cost

    def test_close_and_reopen_round_trips(self, city):
        corridor = corridor_edges(city)
        costs = {e: city.edge_cost(*e) for e in corridor}
        closure = CloseEdges(5.0, corridor)
        world = _world(city)
        removed = closure.apply(world)
        assert removed == len(closure.closed) > 0
        for u, v, _ in closure.closed:
            assert not city.has_edge(u, v)
        ReopenEdges(9.0, closure).apply(world)
        for e, cost in costs.items():
            assert city.edge_cost(*e) == pytest.approx(cost)

    def test_duplicate_directed_pairs_scale_once_and_round_trip(self, city):
        """Listing both (u, v) and (v, u) with bidirectional=True must not
        scale an edge twice -- and its restoration must round-trip."""
        u, v = next((u, v) for u, v, _ in city.edges())
        original_uv = city.edge_cost(u, v)
        original_vu = city.edge_cost(v, u)
        scale = ScaleEdges(1.0, [(u, v), (v, u)], 2.0, bidirectional=True)
        world = _world(city)
        scale.apply(world)
        assert city.edge_cost(u, v) == 2.0 * original_uv
        assert city.edge_cost(v, u) == 2.0 * original_vu
        RestoreEdges(2.0, scale).apply(world)
        assert city.edge_cost(u, v) == original_uv
        assert city.edge_cost(v, u) == original_vu

    def test_wave_interleaved_with_closure_round_trips(self, city):
        """A wave that recedes while its edges are closed must not bake the
        slowdown into the reopening: the parked original cost wins over the
        closure-time (scaled) one, so the shared network round-trips."""
        u, v = next((u, v) for u, v, _ in city.edges())
        original = city.edge_cost(u, v)
        scale = ScaleEdges(1.0, [(u, v)], 2.0, bidirectional=False)
        close = CloseEdges(2.0, [(u, v)], bidirectional=False)
        world = _world(city)
        scale.apply(world)
        close.apply(world)
        RestoreEdges(3.0, scale).apply(world)  # edge closed: restoration parks
        assert world.cost_restores == {(u, v): original}
        ReopenEdges(4.0, close).apply(world)
        assert city.edge_cost(u, v) == original
        assert world.cost_restores == {}

    def test_closure_skips_edges_that_would_dead_end(self, city):
        # Close everything around node 0 -- the guard must leave the node
        # with at least one outgoing and one incoming edge.
        neighbors = [v for v, _ in city.neighbors(0)]
        CloseEdges(1.0, [(0, v) for v in neighbors]).apply(_world(city))
        assert city.out_degree(0) >= 1
        assert sum(1 for _ in city.predecessors(0)) >= 1

    def test_invalid_events_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaleEdges(1.0, [], 0.0)
        with pytest.raises(ConfigurationError):
            ScaleEdges(-1.0, [], 2.0)
        with pytest.raises(ConfigurationError):
            ScaleEdges(1.0, [], math.nan)
        with pytest.raises(ConfigurationError):
            ReopenEdges(1.0, None)
        with pytest.raises(ConfigurationError):
            ReopenEdges(1.0, CloseEdges(5.0, []))
        with pytest.raises(ConfigurationError):
            traffic_wave([], 2.0, 30.0, 20.0)

    def test_cancellation_asks_the_engine_to_retire_each_id(self, city):
        # Whether an id is still pending, and what leaving counts, is the
        # engine's (see test_simulator.py's pool tests).
        retired = []
        CancelRequests(5.0, [7, 8, 9]).apply(_world(city, retire=lambda *a: retired.append(a)))
        assert retired == [(rid, EventKind.REQUEST_CANCELLED, 10.0) for rid in (7, 8, 9)]

    def test_shift_start_and_end(self, city):
        # The events change the fleet; the engine re-indexes it at the same
        # boundary, before anything is dispatched.
        simulator = Simulator(
            network=city, oracle=DistanceOracle(city), vehicles=[], requests=[],
            dispatcher=make_dispatcher("SARD"), config=SimulationConfig(),
            timeline=ScenarioTimeline([
                VehicleShiftStart(42.0, [(100, 0, 4), (101, 5, 2)]),
                VehicleShiftEnd(60.0, [100, 999]),  # unknown id ignored
                VehicleShiftStart(61.0, [(101, 0, 4)]),
            ]),
        )
        index = simulator._vehicle_index
        simulator.begin_run(start_time=40.0)
        simulator.process_batch(Batch(0, 40.0, 50.0, ()))
        by_id = simulator.run_state.vehicles_by_id
        assert {v.vehicle_id for v in simulator.vehicles} == {100, 101}
        assert by_id[100]._clock == 50.0
        assert 100 in index and 101 in index
        simulator.process_batch(Batch(1, 50.0, 60.0, ()))
        assert not by_id[100].on_shift and by_id[101].on_shift
        assert 100 not in index and 101 in index
        assert [v.vehicle_id for v in simulator.run_state.on_shift] == [101]
        with pytest.raises(ScenarioError):
            simulator.process_batch(Batch(2, 60.0, 70.0, ()))

    def test_shift_start_rejects_unknown_node(self, city):
        with pytest.raises(ScenarioError):
            VehicleShiftStart(1.0, [(200, 99_999, 4)]).apply(_world(city))


class TestTimeline:
    def test_orders_and_pops_due_events(self):
        events = [ScaleEdges(30.0, [], 2.0), ScaleEdges(10.0, [], 2.0),
                  ScaleEdges(20.0, [], 2.0)]
        timeline = ScenarioTimeline(events)
        assert len(timeline) == 3
        assert timeline.has_due(10.0)
        due = timeline.pop_due(20.0)
        assert [e.time for e in due] == [10.0, 20.0]
        assert timeline.remaining == 1
        assert not timeline.has_due(25.0)
        assert [e.time for e in timeline.pop_due(math.inf)] == [30.0]

    def test_scenario_builds_fresh_events_per_run(self, city):
        scenario = make_scenario("bridge_closure", city, horizon=100.0)
        first = scenario.make_timeline()
        second = scenario.make_timeline()
        assert first.pop_due(math.inf)[0] is not second.pop_due(math.inf)[0]


class TestRefreshPolicies:
    def _mutated(self, city, backend="ch"):
        oracle = DistanceOracle(city, backend=backend)
        oracle.cost(0, 7)
        u, v, cost = next(iter(city.edges()))
        city.add_edge(u, v, cost * 2.0)
        return oracle

    def test_every_configured_name_builds_its_policy(self):
        """``REFRESH_POLICIES`` is the one list of policy names: each builds
        the policy that reports it, by name or through a scenario config."""
        for name in REFRESH_POLICIES:
            assert make_refresh_policy(name).name == name
            config = ScenarioConfig(refresh_policy=name)
            assert make_refresh_policy(config=config).name == name

    def test_the_default_is_the_scenario_configs(self, city):
        """``ScenarioConfig`` holds the one default: a bare
        ``make_refresh_policy()`` builds it, a simulator given a timeline but
        no policy runs it, and a static simulator has none."""
        default = ScenarioConfig().refresh_policy
        assert make_refresh_policy().name == default
        parts = dict(
            network=city, oracle=DistanceOracle(city), vehicles=[], requests=[],
            dispatcher=make_dispatcher("pruneGDP"), config=SimulationConfig(),
        )
        dynamic = Simulator(timeline=ScenarioTimeline([]), **parts)
        assert dynamic.refresh_policy is not None
        assert dynamic.refresh_policy.name == default
        assert Simulator(**parts).refresh_policy is None

    @pytest.mark.parametrize("name", REFRESH_POLICIES)
    def test_hooks_take_only_what_a_policy_reads(self, name):
        """The simulator hands a hook the oracle and, at a batch boundary,
        whether more events are due -- nothing else."""
        policy = make_refresh_policy(name)
        hooks = {
            hook: list(inspect.signature(getattr(policy, hook)).parameters)
            for hook in ("on_batch_start", "on_mutations", "finalize")
        }
        assert hooks == {
            "on_batch_start": ["oracle", "more_events_due"],
            "on_mutations": ["oracle"],
            "finalize": ["oracle"],
        }

    def test_coalesce_waits_for_quiet_boundary(self, city):
        policy = make_refresh_policy("coalesce")
        oracle = self._mutated(city)
        policy.on_mutations(oracle)
        policy.on_batch_start(oracle, True)  # more events due: hold
        assert policy.stats.rebuilds == 0 and oracle.serving_fallback
        policy.on_mutations(oracle)
        policy.on_batch_start(oracle, False)  # quiet: rebuild once
        assert policy.stats.rebuilds == 1 and not oracle.serving_fallback
        assert policy.stats.stale_seconds > 0.0

    def test_finalize_clears_any_staleness(self, city):
        policy = make_refresh_policy("coalesce")
        oracle = self._mutated(city)
        policy.on_mutations(oracle)
        policy.finalize(oracle)
        assert policy.stats.rebuilds == 1
        assert not oracle.serving_fallback and not oracle.is_stale

    @pytest.mark.parametrize("name", REFRESH_POLICIES)
    def test_each_refresh_step_is_traced_under_the_policy_name(self, city, name):
        traced = {"coalesce": ["oracle.defer", "oracle.rebuild"], "repair": ["oracle.repair"]}
        policy = make_refresh_policy(name)
        oracle = self._mutated(city)
        with tracing() as tracer:
            policy.on_mutations(oracle)
            policy.on_batch_start(oracle, False)
        assert [record.name for record in tracer.records] == traced[name]
        assert {record.tags["policy"] for record in tracer.records} == {name}

    def test_repair_finalize_repairs_instead_of_rebuilding(self, city):
        """An oracle still stale when the run ends is repaired by
        ``finalize``, not rebuilt: here the network is back to the content
        it started with, so the held state is swapped back."""
        policy = make_refresh_policy("repair")
        oracle = self._mutated(city)
        u, v, cost = next(iter(city.edges()))
        city.add_edge(u, v, cost / 2.0)
        assert oracle.is_stale
        policy.finalize(oracle)
        assert policy.stats.repairs == 1 and policy.stats.rebuilds == 0
        assert not oracle.is_stale and not oracle.serving_fallback

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_refresh_policy("sometimes")

    def test_repair_rebuilds_a_burst_that_does_not_revert(self, city):
        policy = make_refresh_policy("repair")
        oracle = self._mutated(city)
        policy.on_mutations(oracle)
        assert policy.stats.repairs == 0 and policy.stats.rebuilds == 1
        assert not oracle.is_stale and not oracle.serving_fallback

    def test_repair_repeated_bursts_on_same_edges(self, city):
        """Bursts that keep toggling the same edges settle into snapshot
        swaps: after the first burst both network states are held and no
        further build happens."""
        policy = make_refresh_policy("repair")
        oracle = DistanceOracle(city, backend="ch")
        oracle.cost(0, 7)
        u, v, cost = next(iter(city.edges()))
        reference_costs = {}
        for _ in range(3):
            for factor in (2.0, 1.0):
                city.add_edge(u, v, cost * factor)
                policy.on_mutations(oracle)
                assert not oracle.is_stale
                got = oracle.cost(u, v)
                want = DistanceOracle(city, cache_size=0).cost(u, v)
                assert got == want
                key = factor
                reference_costs.setdefault(key, got)
                assert got == reference_costs[key]
        assert policy.stats.repairs == 5 and policy.stats.rebuilds == 1

    def test_repair_close_then_reopen_before_any_query(self, city):
        """A burst that closes and reopens an edge before any query leaves
        the content unchanged: the repair recognises the reversion and swaps
        the held state back without building."""
        policy = make_refresh_policy("repair")
        oracle = DistanceOracle(city, backend="ch")
        oracle.cost(0, 7)
        u, v, cost = next(iter(city.edges()))
        city.remove_edge(u, v)
        city.add_edge(u, v, cost)
        assert oracle.is_stale
        policy.on_mutations(oracle)
        assert not oracle.is_stale
        assert policy.stats.repairs == 1 and policy.stats.rebuilds == 0
        assert oracle.cost(u, v) == DistanceOracle(city, cache_size=0).cost(u, v)


class TestSurgeModulation:
    def _generator(self, city, num_requests=400, seed=5):
        workload = WorkloadConfig(
            num_requests=num_requests, num_vehicles=10, horizon=1000.0, seed=seed
        )
        simulation = SimulationConfig()
        oracle = DistanceOracle(city)
        return RequestGenerator(city, oracle, workload, simulation), workload

    def test_surge_concentrates_arrivals(self, city):
        generator, workload = self._generator(city)
        surge = DemandSurge(start=200.0, end=400.0, rate_multiplier=4.0)
        requests = generator.generate(surges=(surge,))
        assert len(requests) == workload.num_requests
        in_window = sum(1 for r in requests if 200.0 <= r.release_time < 400.0)
        # 20% of the horizon at 4x intensity ~ 50% of the mass.
        assert in_window / len(requests) > 0.35

    def test_outbound_surge_anchors_origins(self, city):
        center = 0
        cx, cy = city.position(center)
        generator, _ = self._generator(city)
        surge = DemandSurge(
            start=0.0, end=1000.0, rate_multiplier=1.0, center=center,
            attraction=1.0, direction="outbound",
        )
        anchored = generator.generate(surges=(surge,))
        distances = [
            math.hypot(*(a - b for a, b in zip(city.position(r.source), (cx, cy))))
            for r in anchored
        ]
        baseline_gen, _ = self._generator(city)
        baseline = [
            math.hypot(*(a - b for a, b in zip(city.position(r.source), (cx, cy))))
            for r in baseline_gen.generate()
        ]
        assert sorted(distances)[len(distances) // 2] < sorted(baseline)[len(baseline) // 2]

    def test_surge_validation(self):
        with pytest.raises(ConfigurationError):
            DemandSurge(start=10.0, end=10.0)
        with pytest.raises(ConfigurationError):
            DemandSurge(start=0.0, end=10.0, rate_multiplier=-1.0)
        with pytest.raises(ConfigurationError):
            DemandSurge(start=0.0, end=10.0, attraction=1.5)
        with pytest.raises(ConfigurationError):
            DemandSurge(start=0.0, end=10.0, direction="sideways")

    def test_no_surges_reproduces_baseline(self, city):
        first, _ = self._generator(city, num_requests=60)
        second, _ = self._generator(city, num_requests=60)
        with_empty = first.generate(surges=())
        without = second.generate()
        assert [(r.source, r.destination, r.release_time) for r in with_empty] == [
            (r.source, r.destination, r.release_time) for r in without
        ]


class TestScenarioPresets:
    def test_all_presets_build(self, city):
        for name in ("rush_hour", "bridge_closure", "stadium_surge"):
            scenario = make_scenario(name, city, horizon=600.0, num_requests=100)
            assert scenario.name == name
            timeline = scenario.make_timeline()
            assert len(timeline) > 0
            assert all(0 <= e.time <= 600.0 for e in timeline.pop_due(math.inf))

    def test_unknown_preset_rejected(self, city):
        with pytest.raises(ConfigurationError):
            make_scenario("earthquake", city, horizon=600.0)
        with pytest.raises(ConfigurationError):
            make_scenario("rush_hour", city, horizon=-5.0)

    def test_make_scenario_workload_bundles_surges(self):
        workload, scenario = make_scenario_workload(
            "nyc", "stadium_surge", scale=0.05, city_scale=0.35
        )
        assert scenario.name == "stadium_surge"
        assert scenario.surges
        assert workload.num_requests > 0
        # The surge anchors outbound demand: the workload must have been
        # generated over the same network the scenario derives its zones
        # from.
        assert scenario.surges[0].center in workload.network


class TestSimulatorIntegration:
    def _run(self, scenario_name, backend, policy, on_applied=None, scale=0.06):
        workload, scenario = make_scenario_workload(
            "nyc", scenario_name, scale=scale, city_scale=0.35,
            simulation_overrides={"routing_backend": backend},
        )
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            timeline=scenario.make_timeline(on_applied=on_applied),
            refresh_policy=make_refresh_policy(policy),
        )
        return simulator.run()

    @pytest.mark.parametrize("backend", ("dijkstra", "ch", "hub_label"))
    @pytest.mark.parametrize("policy", REFRESH_POLICIES)
    def test_bridge_closure_parity_and_no_closed_edges(self, backend, policy):
        """Acceptance: after every event the oracle matches a fresh Dijkstra
        and no returned path crosses a closed (absent) edge.  ``dijkstra``
        holds no hierarchy, so its repairs are rebuilds."""
        rng = random.Random(13)
        checks = {"bursts": 0}

        def probe(world):
            checks["bursts"] += 1
            network = world.network
            nodes = list(network.nodes())
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(15)]
            reference = DistanceOracle(network, cache_size=0, backend="dijkstra")
            for u, v in pairs:
                want = reference.cost(u, v)
                got = world.oracle.cost(u, v)
                if math.isinf(want):
                    assert math.isinf(got)
                    continue
                assert got == want
                path = world.oracle.path(u, v)
                assert all(network.has_edge(a, b) for a, b in zip(path, path[1:]))

        result = self._run("bridge_closure", backend, policy, on_applied=probe)
        assert checks["bursts"] == 2  # closure + reopening
        assert result.metrics.scenario_events == 2
        if policy == "repair":
            # Every burst is absorbed immediately -- the closure by a
            # rebuild, the reopening by a snapshot swap of the set-up state
            # (dijkstra holds none) -- so queries never run stale or fall back.
            assert (result.metrics.oracle_repairs >= 1) == (backend != "dijkstra")
            assert (
                result.metrics.oracle_repairs + result.metrics.oracle_rebuilds == 2
            )
            assert result.metrics.oracle_fallback_queries == 0
            assert result.metrics.oracle_stale_seconds == 0.0
        else:
            assert result.metrics.oracle_rebuilds >= 1
            assert result.metrics.oracle_fallback_queries > 0
            assert result.metrics.oracle_stale_seconds > 0.0

    def test_stadium_surge_full_machinery(self):
        result = self._run("stadium_surge", "hub_label", "coalesce", scale=0.08)
        events = result.events
        assert events.count(EventKind.VEHICLE_SHIFT_STARTED) == 6
        assert events.count(EventKind.VEHICLE_SHIFT_ENDED) == 6
        assert events.count(EventKind.EDGES_RESCALED) == 2
        assert result.metrics.scenario_events >= 4
        assert result.metrics.oracle_rebuilds >= 1

    def test_a_simulator_runs_once(self):
        """A second run would start its shift vehicles again (their ids are
        already in the fleet) and sum the first run's served work into its
        metrics: it is refused before it touches anything."""
        workload, scenario = make_scenario_workload(
            "nyc", "stadium_surge", scale=0.05, city_scale=0.35
        )
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            timeline=scenario.make_timeline(),
        )
        fleet = list(simulator.vehicles)
        result = simulator.run()
        assert result.events.count(EventKind.VEHICLE_SHIFT_STARTED) > 0
        grown = list(simulator.vehicles)
        assert len(grown) > len(fleet)
        for again in (simulator.run, simulator.begin_run):
            with pytest.raises(DispatchError, match="runs once"):
                again()
        assert simulator.vehicles == grown

    def test_off_shift_vehicles_get_no_new_assignments(self):
        """After a shift end, the retired vehicle appears in no further
        assignment events."""
        workload = make_workload(
            "nyc", scale=0.05, city_scale=0.35,
        )
        retired = workload.fresh_vehicles()[0].vehicle_id
        horizon = workload.workload_config.effective_horizon
        timeline = ScenarioTimeline([VehicleShiftEnd(horizon * 0.3, [retired])])
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            timeline=timeline,
        )
        result = simulator.run()
        shift_end_time = next(
            e.time for e in result.events
            if e.kind is EventKind.VEHICLE_SHIFT_ENDED
        )
        late_assignments = [
            e for e in result.events
            if e.kind is EventKind.REQUEST_ASSIGNED
            and e.other == retired and e.time > shift_end_time
        ]
        assert late_assignments == []

    def test_network_restored_across_runs(self):
        workload, scenario = make_scenario_workload(
            "nyc", "bridge_closure", scale=0.05, city_scale=0.35,
        )
        edges_before = workload.network.num_edges
        mutations_before = None
        for _ in range(2):
            simulator = Simulator(
                network=workload.network,
                oracle=workload.fresh_oracle(),
                vehicles=workload.fresh_vehicles(),
                requests=list(workload.requests),
                dispatcher=make_dispatcher("pruneGDP"),
                config=workload.simulation_config,
                timeline=scenario.make_timeline(),
            )
            simulator.run()
            assert workload.network.num_edges == edges_before
            if mutations_before is not None:
                assert workload.network.mutation_count > mutations_before
            mutations_before = workload.network.mutation_count


class TestRebuildAdoptionEndToEnd:
    """A rebuild that adopts a held routing state changes no outcome and no
    oracle counter: against a run that holds nothing
    (``SNAPSHOT_CAPACITY = 0``), only the hierarchy builds differ, by
    exactly the number of adoptions.  A receding wave (``rush_hour``,
    ``stadium_surge``) is adopted; a reopened road (``bridge_closure``)
    comes back at the end of its row, so it is built again."""

    @staticmethod
    def _observe(scenario, backend, policy, capacity, monkeypatch) -> dict:
        monkeypatch.setattr(shortest_path, "SNAPSHOT_CAPACITY", capacity)
        counts = {"builds": 0, "adoptions": 0}
        build, rebuild = ContractionHierarchy._build, DistanceOracle.rebuild

        def counting_build(self, *args):
            counts["builds"] += 1
            build(self, *args)

        def counting_rebuild(self):
            compiled = routing_data(self.network)  # what a build would serve
            seconds = rebuild(self)
            counts["adoptions"] += routing_data(self.network) is not compiled
            return seconds

        monkeypatch.setattr(ContractionHierarchy, "_build", counting_build)
        monkeypatch.setattr(DistanceOracle, "rebuild", counting_rebuild)
        workload, built = make_scenario_workload(
            "nyc", scenario, scale=0.05, city_scale=0.35,
            simulation_overrides={"routing_backend": backend},
        )
        oracle = workload.fresh_oracle()
        result = Simulator(
            network=workload.network,
            oracle=oracle,
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            timeline=built.make_timeline(),
            refresh_policy=make_refresh_policy(policy),
        ).run()
        monkeypatch.undo()
        return {
            "events": [(e.time, e.kind.value, e.subject, e.other) for e in result.events],
            "unified_cost": result.unified_cost,
            "stats": oracle.stats.snapshot(),
            "rebuilds": result.metrics.oracle_rebuilds,
            "repairs": result.metrics.oracle_repairs,
            **counts,
        }

    @pytest.mark.parametrize("scenario", ("rush_hour", "bridge_closure", "stadium_surge"))
    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_adoption_changes_only_the_builds(self, scenario, backend, monkeypatch):
        held = self._observe(
            scenario, backend, "coalesce", shortest_path.SNAPSHOT_CAPACITY, monkeypatch
        )
        plain = self._observe(scenario, backend, "coalesce", 0, monkeypatch)
        for name in ("events", "unified_cost", "stats", "rebuilds"):
            assert held[name] == plain[name], name
        assert plain["adoptions"] == 0
        assert plain["builds"] - held["builds"] == held["adoptions"]
        assert (held["adoptions"] > 0) == (scenario != "bridge_closure")

    @pytest.mark.parametrize("scenario", ("rush_hour", "bridge_closure", "stadium_surge"))
    @pytest.mark.parametrize("backend", ("ch", "hub_label"))
    def test_snapshot_swaps_change_no_outcome(self, scenario, backend, monkeypatch):
        """``repair`` swaps a held state back in where a run that holds
        nothing rebuilds: every burst is refreshed at the same time either
        way, and riders, costs and the oracle's logical counters see no
        difference.  A rebuilt hierarchy need not be the one that was
        swapped back (a reopened road ends its row), so ``settled_nodes``
        may move; its sums are of grid weights, so every time is the same."""
        held = self._observe(
            scenario, backend, "repair", shortest_path.SNAPSHOT_CAPACITY, monkeypatch
        )
        plain = self._observe(scenario, backend, "repair", 0, monkeypatch)
        refresh = {EventKind.ORACLE_REBUILT.value, EventKind.ORACLE_REPAIRED.value}

        def split(run):
            events = run["events"]
            return (
                [e[1:] for e in events if e[1] not in refresh],
                [(e[0], e[2], e[3]) for e in events if e[1] in refresh],
            )

        assert split(held) == split(plain)
        assert [e[0] for e in held["events"]] == [e[0] for e in plain["events"]]
        assert held["unified_cost"] == plain["unified_cost"]
        moved = {name for name, value in held["stats"].items() if plain["stats"][name] != value}
        assert moved <= {"settled_nodes"}
        assert held["rebuilds"] + held["repairs"] == plain["rebuilds"] + plain["repairs"]
        assert plain["repairs"] == 0 < held["repairs"]
