"""Resilience layer: fault injection, retry/backoff, breakers, self-healing.

The chaos contract under test: with the same seed the injected fault
sequence -- and therefore the whole simulation outcome -- is reproducible;
under any injected fault sequence the run completes without an unhandled
exception; and every dispatch prices on an oracle the pre-dispatch probe
has just checked against a fresh Dijkstra over the mutated network.
"""

from __future__ import annotations

import math
from random import Random

import pytest

from repro.config import REFRESH_POLICIES, ChaosConfig
from repro.dispatch.prunegdp import PruneGDPDispatcher
from repro.exceptions import (
    ConfigurationError,
    InjectedFaultError,
    OracleBuildError,
    OracleRepairError,
    ResilienceError,
    ScenarioError,
)
from repro.experiments.harness import (
    RunSpec,
    _parity_probe,
    deterministic_summary,
    run,
)
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import DistanceOracle
from repro.numeric import to_grid
from repro.observability import tracing
from repro.resilience import (
    BreakerState,
    ChaosOracle,
    CircuitBreaker,
    FaultInjector,
    ResilienceManager,
    RetryPolicy,
)
from repro.scenarios import make_refresh_policy
from repro.scenarios.events import WorldView
from repro.scenarios.presets import CHAOS_PRESETS, make_chaos_config
from repro.simulation.events import EventKind
from repro.simulation.metrics import METRICS, MetricsCollector


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestChaosConfig:
    def test_defaults_are_quiet(self):
        config = ChaosConfig()
        assert not config.enabled

    def test_any_positive_rate_enables(self):
        assert ChaosConfig(corruption_rate=0.1).enabled
        assert ChaosConfig(query_spike_rate=0.5).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rebuild_failure_rate": -0.1},
            {"repair_failure_rate": 1.5},
            {"corruption_rate": math.nan},
            {"corruption_factor": 1.0},
            {"corruption_factor": -2.0},
            {"spike_seconds": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChaosConfig(**kwargs)

    def test_chaos_presets(self):
        assert set(CHAOS_PRESETS) == {"flaky_oracle", "oracle_meltdown"}
        flaky = make_chaos_config("flaky_oracle")
        assert flaky.enabled
        overridden = make_chaos_config("flaky_oracle", corruption_rate=0.0)
        assert overridden.corruption_rate == 0.0
        with pytest.raises(ConfigurationError):
            make_chaos_config("full_moon")


# --------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self, monkeypatch):
        monkeypatch.setattr(RetryPolicy, "BASE_DELAY", 0.5)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFaultError("transient")
            return "ok"

        pauses = []
        result, seconds = RetryPolicy().call(
            flaky,
            rng=Random(7),
            error_type=OracleBuildError,
            describe="op",
            on_retry=lambda a, p, e: pauses.append(p),
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(pauses) == 2
        # Backoff is virtual: charged to the seconds, never slept.
        assert sum(pauses) > 0.5
        assert seconds >= sum(pauses)

    def test_exhaustion_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(RetryPolicy, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(RetryPolicy, "BASE_DELAY", 0.0)

        def always_fails():
            raise InjectedFaultError("down")

        policy = RetryPolicy()
        with pytest.raises(OracleBuildError) as excinfo:
            policy.call(
                always_fails,
                rng=Random(1),
                error_type=OracleBuildError,
                describe="rebuild",
            )
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

        with pytest.raises(OracleRepairError):
            policy.call(
                always_fails,
                rng=Random(1),
                error_type=OracleRepairError,
                describe="repair",
            )

    def test_deadline_budget_cuts_retries_short(self, monkeypatch):
        def always_fails():
            raise InjectedFaultError("down")

        # The first virtual pause alone blows the 1s deadline.
        monkeypatch.setattr(RetryPolicy, "MAX_ATTEMPTS", 10)
        monkeypatch.setattr(RetryPolicy, "BASE_DELAY", 5.0)
        monkeypatch.setattr(RetryPolicy, "JITTER", 0.0)
        monkeypatch.setattr(RetryPolicy, "DEADLINE", 1.0)
        attempts = []
        with pytest.raises(OracleBuildError, match="deadline"):
            RetryPolicy().call(
                always_fails,
                rng=Random(1),
                error_type=OracleBuildError,
                describe="rebuild",
                on_retry=lambda a, p, e: attempts.append(a),
            )
        assert attempts == []  # never got to a second attempt

    def test_first_try_success_charges_no_backoff(self):
        """A first-try success never retries and draws no jitter, so the
        seeded jitter stream only moves on failures."""
        rng = Random(3)
        state = rng.getstate()
        pauses = []
        result, seconds = RetryPolicy().call(
            lambda: 42,
            rng=rng,
            error_type=OracleBuildError,
            describe="op",
            on_retry=lambda a, p, e: pauses.append(p),
        )
        assert result == 42
        assert pauses == []
        assert 0.0 <= seconds < RetryPolicy.BASE_DELAY
        assert rng.getstate() == state

    def test_non_repro_errors_propagate_immediately(self, monkeypatch):
        monkeypatch.setattr(RetryPolicy, "MAX_ATTEMPTS", 5)

        def broken():
            raise ValueError("a genuine bug")

        with pytest.raises(ValueError):
            RetryPolicy().call(
                broken, rng=Random(1), error_type=OracleBuildError, describe="op"
            )


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #
def _breaker(monkeypatch, *, threshold: int, interval: int) -> CircuitBreaker:
    monkeypatch.setattr(CircuitBreaker, "FAILURE_THRESHOLD", threshold)
    monkeypatch.setattr(CircuitBreaker, "RECOVERY_INTERVAL", interval)
    return CircuitBreaker()


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, monkeypatch):
        breaker = _breaker(monkeypatch, threshold=2, interval=2)
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.record_failure()  # second consecutive failure trips
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_consecutive_count(self, monkeypatch):
        breaker = _breaker(monkeypatch, threshold=2, interval=1)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # streak was broken

    def test_recovery_cycle_closes_on_success(self, monkeypatch):
        breaker = _breaker(monkeypatch, threshold=1, interval=2)
        assert breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.tick()  # cooldown 2 -> 1
        assert breaker.tick()  # probe due
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 1

    def test_half_open_failure_reopens_and_counts_a_trip(self, monkeypatch):
        breaker = _breaker(monkeypatch, threshold=2, interval=1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.tick()
        assert breaker.state is BreakerState.HALF_OPEN
        # A single failure in half-open re-opens regardless of the threshold.
        assert breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_begin_run_builds_fresh_breakers(self, monkeypatch):
        """The manager builds its breakers in begin_run alone, so a trip in
        one run never carries into the next."""
        monkeypatch.setattr(CircuitBreaker, "FAILURE_THRESHOLD", 1)
        manager = ResilienceManager()
        assert manager.oracle_breaker.record_failure()
        assert manager.dispatch_breaker.record_failure()
        assert manager.breaker_trips == 2
        manager.begin_run()
        assert manager.breaker_trips == 0
        assert manager.oracle_breaker.state is BreakerState.CLOSED
        assert manager.dispatch_breaker.state is BreakerState.CLOSED


# --------------------------------------------------------------------- #
# fault injector
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_same_seed_same_fault_sequence(self):
        config = ChaosConfig(
            seed=42,
            rebuild_failure_rate=0.4,
            repair_failure_rate=0.4,
            corruption_rate=0.4,
            query_spike_rate=0.3,
        )
        logs = []
        for _ in range(2):
            injector = FaultInjector(config)
            for _ in range(50):
                injector.fail_rebuild()
                injector.fail_repair()
                injector.corrupt_refresh()
                injector.query_spike()
            logs.append((list(injector.fault_log), injector.faults_injected))
        assert logs[0] == logs[1]
        assert logs[0][1] > 0

    def test_reset_rewinds_the_streams(self):
        injector = FaultInjector(ChaosConfig(seed=3, rebuild_failure_rate=0.5))
        first = [injector.fail_rebuild() for _ in range(20)]
        injector.reset()
        assert [injector.fail_rebuild() for _ in range(20)] == first

    def test_spikes_do_not_shift_refresh_faults(self):
        base = ChaosConfig(seed=11, rebuild_failure_rate=0.5)
        with_spikes = base.with_overrides(query_spike_rate=1.0, spike_seconds=0.01)
        a = FaultInjector(base)
        b = FaultInjector(with_spikes)
        decisions_a, decisions_b = [], []
        for _ in range(30):
            b.query_spike()  # separate stream: must not perturb rebuilds
            decisions_a.append(a.fail_rebuild())
            decisions_b.append(b.fail_rebuild())
        assert decisions_a == decisions_b
        assert b.pending_latency > 0
        drained = b.drain_latency()
        assert drained == pytest.approx(b.total_latency)
        assert b.pending_latency == 0.0


# --------------------------------------------------------------------- #
# oracle seams: exception safety
# --------------------------------------------------------------------- #
class TestOracleSeams:
    def test_rebuild_is_exception_safe(self, grid_network, monkeypatch):
        oracle = DistanceOracle(grid_network, backend="ch")
        want = oracle.cost(0, 35)
        import repro.network.shortest_path as sp

        def exploding(*args, **kwargs):
            raise InjectedFaultError("backend factory crashed")

        monkeypatch.setattr(sp, "make_backend", exploding)
        with pytest.raises(InjectedFaultError):
            oracle.rebuild()
        # The failed rebuild must not have torn down the serving structures.
        assert oracle.cost(0, 35) == pytest.approx(want)
        monkeypatch.undo()
        oracle.rebuild()
        assert oracle.cost(0, 35) == pytest.approx(want)

    def test_chaos_oracle_with_quiet_injector_is_exact(self, grid_network):
        injector = FaultInjector(ChaosConfig())
        oracle = ChaosOracle(grid_network, injector=injector, backend="ch")
        reference = DistanceOracle(grid_network, cache_size=0, backend="dijkstra")
        assert oracle.cost(3, 30) == pytest.approx(reference.cost(3, 30))
        assert not oracle.corrupted
        assert injector.faults_injected == 0

    def test_chaos_oracle_corruption_and_heal(self, grid_network):
        injector = FaultInjector(
            ChaosConfig(corruption_rate=1.0, corruption_factor=1.5)
        )
        oracle = ChaosOracle(grid_network, injector=injector, backend="ch")
        exact = oracle.cost(3, 30)
        oracle.rebuild()  # always succeeds, always corrupts at rate 1.0
        assert oracle.corrupted
        assert oracle.cost(3, 30) == pytest.approx(1.5 * exact)
        oracle.heal()
        assert oracle.cost(3, 30) == pytest.approx(exact)


# --------------------------------------------------------------------- #
# invariant probes and the self-healing rung
# --------------------------------------------------------------------- #
class TestProbesAndSelfHealing:
    def test_probe_detects_corruption(self, grid_network, monkeypatch):
        monkeypatch.setattr(ResilienceManager, "PROBE_SEED", 5)
        injector = FaultInjector(
            ChaosConfig(corruption_rate=1.0, corruption_factor=1.1)
        )
        oracle = ChaosOracle(grid_network, injector=injector, backend="ch")
        manager = ResilienceManager()
        assert manager._probe(grid_network, oracle) == []
        oracle.rebuild()
        failures = manager._probe(grid_network, oracle)
        assert failures
        # The corrupted answer is put back on the time grid, rounded up.
        assert all(f.got == to_grid(1.1 * f.want, up=True) for f in failures)

    def test_probe_sampling_is_seeded(self, grid_network, oracle, monkeypatch):
        monkeypatch.setattr(ResilienceManager, "PROBE_SEED", 9)
        monkeypatch.setattr(ResilienceManager, "PROBE_PAIRS", 6)
        a = ResilienceManager()
        b = ResilienceManager()
        a._probe(grid_network, oracle)
        b._probe(grid_network, oracle)
        assert a._probe_rng.getstate() == b._probe_rng.getstate()
        a.begin_run()  # one stream per run: rewound to the seed state
        assert a._probe_rng.getstate() == ResilienceManager()._probe_rng.getstate()

    def test_manager_self_heals_probe_failures(self, grid_network):
        # Corruption always fires on refresh, but rebuilds never fail: the
        # first heal attempt clears the corruption and the follow-up rebuild
        # immediately re-corrupts -- heal() runs *after* guarded_rebuild in
        # the ladder only via ChaosOracle.heal before the rebuild, so the
        # re-check passes because heal clears the flag set by that rebuild.
        manager = ResilienceManager(
            chaos=ChaosConfig(corruption_rate=1.0, corruption_factor=1.2),
        )
        oracle = manager.make_oracle(grid_network, backend="ch")
        assert isinstance(oracle, ChaosOracle)
        manager.begin_run()
        oracle.rebuild()
        assert oracle.corrupted
        manager.before_dispatch(grid_network, oracle, now=0.0)
        assert manager.stats.probe_failures > 0
        assert manager.stats.self_heals > 0
        # Post-heal the oracle must answer exactly, whatever rung it landed on.
        reference = DistanceOracle(grid_network, cache_size=0, backend="dijkstra")
        assert oracle.cost(2, 33) == pytest.approx(reference.cost(2, 33))

    def test_manager_events_reach_the_recorder(self, grid_network):
        manager = ResilienceManager(
            chaos=ChaosConfig(corruption_rate=1.0, corruption_factor=1.2),
        )
        oracle = manager.make_oracle(grid_network, backend="ch")
        recorded = []
        manager.begin_run(
            recorder=lambda now, kind, subject, other=None: recorded.append(kind)
        )
        oracle.rebuild()
        manager.before_dispatch(grid_network, oracle, now=5.0)
        assert EventKind.PROBE_FAILED in recorded
        assert EventKind.ORACLE_SELF_HEALED in recorded

    def test_manager_events_are_traced_under_their_kind_values(self, grid_network):
        """The recorder gets ``EventKind`` members; the trace names each one
        ``resilience.<value>``, in the same order."""
        manager = ResilienceManager(
            chaos=ChaosConfig(corruption_rate=1.0, corruption_factor=1.2),
        )
        oracle = manager.make_oracle(grid_network, backend="ch")
        recorded = []
        manager.begin_run(
            recorder=lambda now, kind, subject, other=None: recorded.append(kind)
        )
        with tracing() as tracer:
            oracle.rebuild()
            manager.before_dispatch(grid_network, oracle, now=5.0)
        assert recorded and all(isinstance(kind, EventKind) for kind in recorded)
        names = {f"resilience.{kind.value}" for kind in EventKind}
        assert [record.name for record in tracer.records if record.name in names] == [
            f"resilience.{kind.value}" for kind in recorded
        ]


# --------------------------------------------------------------------- #
# one exact-cost check: the manager's probe, the pre-dispatch gate it feeds
# and the scenario parity probe
# --------------------------------------------------------------------- #
def _probe_flags(network: RoadNetwork, oracle: DistanceOracle) -> bool:
    return bool(ResilienceManager()._probe(network, oracle))


def _gate_flags(network: RoadNetwork, oracle: DistanceOracle) -> bool:
    """The whole pre-dispatch gate: a flagged oracle is healed (or, past the
    last rung, refused), so the next dispatch never prices on it."""
    manager = ResilienceManager()
    try:
        manager.before_dispatch(network, oracle, 0.0)
    except ResilienceError:
        return True
    assert not getattr(oracle, "corrupted", False)
    assert ResilienceManager()._probe(network, oracle) == []
    return manager.stats.probe_failures > 0


def _parity_flags(network: RoadNetwork, oracle: DistanceOracle) -> bool:
    context = {"bursts": 0}
    world = WorldView(
        now=0.0, network=network, oracle=oracle, vehicles=[], vehicles_by_id={},
    )
    try:
        _parity_probe(context, 4)(world)
    except ScenarioError:
        return True
    assert context["bursts"] == 1
    return False


CHECKERS = {"probe": _probe_flags, "gate": _gate_flags, "parity": _parity_flags}


def _serving(network: RoadNetwork, backend: str, state: str) -> DistanceOracle:
    """The oracle under check: as built, on its Dijkstra fallback, or a
    chaos oracle whose refresh left it corrupted by the factor ``state``."""
    if state in ("built", "fallback"):
        oracle = DistanceOracle(network, backend=backend)
        if state == "fallback":
            oracle.enable_fallback()
        return oracle
    chaos = ChaosConfig(corruption_rate=1.0, corruption_factor=float(state))
    oracle = ChaosOracle(network, injector=FaultInjector(chaos), backend=backend)
    oracle.rebuild()
    assert oracle.corrupted
    return oracle


class TestExactCostCheck:
    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    @pytest.mark.parametrize("state", ["built", "fallback", "0.6", "1.07"])
    @pytest.mark.parametrize("backend", ["dijkstra", "ch", "hub_label"])
    def test_passes_exact_and_flags_corrupted(self, grid_network, backend, state, checker):
        oracle = _serving(grid_network, backend, state)
        corrupted = state not in ("built", "fallback")
        assert CHECKERS[checker](grid_network, oracle) is corrupted

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_two_microseconds_on_ten_thousand_seconds_is_flagged(self, checker):
        """The rule is exact: a 2e-6 s error on a 1e4 s cost, far below one
        grid step, is flagged."""

        class Drifting(DistanceOracle):
            def cost(self, source: int, target: int) -> float:
                value = super().cost(source, target)
                return value + 2e-6 if value > 0 else value

        network = RoadNetwork()
        for node in range(2):
            network.add_node(node, node * 1e5, 0.0)
        network.add_edge(0, 1, 1e4, bidirectional=True)
        assert not CHECKERS[checker](network, DistanceOracle(network))
        assert CHECKERS[checker](network, Drifting(network))

    def test_parity_probe_checks_the_path_of_each_exact_pair(self, grid_network):
        class Teleporting(DistanceOracle):
            def path(self, source: int, target: int) -> list[int]:
                super().path(source, target)
                return [source, target]

        world = WorldView(
            now=0.0, network=grid_network, oracle=Teleporting(grid_network),
            vehicles=[], vehicles_by_id={},
        )
        with pytest.raises(ScenarioError, match="missing edge"):
            _parity_probe({"bursts": 0}, 4)(world)


# --------------------------------------------------------------------- #
# degradation ladder through the refresh policies
# --------------------------------------------------------------------- #
class TestGuardedRefresh:
    @pytest.fixture(autouse=True)
    def hair_trigger_breakers(self, monkeypatch):
        monkeypatch.setattr(CircuitBreaker, "FAILURE_THRESHOLD", 1)
        monkeypatch.setattr(CircuitBreaker, "RECOVERY_INTERVAL", 1)

    def _manager(self, **chaos_kwargs):
        return ResilienceManager(chaos=ChaosConfig(**chaos_kwargs))

    def test_rebuild_failure_drops_to_exact_fallback(self, grid_network):
        manager = self._manager(rebuild_failure_rate=1.0)
        oracle = manager.make_oracle(grid_network, backend="ch")
        manager.begin_run()
        seconds, rebuilt = manager.guarded_rebuild(oracle)
        assert not rebuilt
        assert oracle.serving_fallback
        assert manager.oracle_breaker.state is BreakerState.OPEN
        assert manager.breaker_trips == 1
        assert manager.stats.retries > 0
        # Fallback answers stay exact.
        reference = DistanceOracle(grid_network, cache_size=0, backend="dijkstra")
        assert oracle.cost(1, 34) == pytest.approx(reference.cost(1, 34))

    def test_repair_failure_climbs_to_rebuild(self, grid_network):
        manager = self._manager(repair_failure_rate=1.0)
        oracle = manager.make_oracle(grid_network, backend="ch")
        manager.begin_run()
        grid_network.add_edge(6, 7, 55.0, bidirectional=True)
        try:
            report = manager.guarded_repair(oracle)
            assert report.mode == "rebuilt"
            assert not oracle.serving_fallback
        finally:
            grid_network.add_edge(6, 7, 10.0, bidirectional=True)
            oracle.injector.reset()
            oracle.rebuild()

    def test_open_breaker_recovers_via_half_open_probe(self, grid_network):
        manager = self._manager(rebuild_failure_rate=1.0)
        oracle = manager.make_oracle(grid_network, backend="ch")
        manager.begin_run()
        manager.guarded_rebuild(oracle)
        assert manager.oracle_breaker.state is BreakerState.OPEN
        # The fault clears; the next batch's recovery probe closes the breaker.
        oracle.injector.config = oracle.injector.config.with_overrides(
            rebuild_failure_rate=0.0
        )
        manager.before_dispatch(grid_network, oracle, now=10.0)
        assert manager.oracle_breaker.state is BreakerState.CLOSED
        assert not oracle.serving_fallback

    def _guarded_policy(self, grid_network, backend, name, **chaos_kwargs):
        """A policy guarded by a fresh manager, and the manager's oracle
        right after a burst that slowed one street."""
        manager = self._manager(**chaos_kwargs)
        oracle = manager.make_oracle(grid_network, backend=backend)
        manager.begin_run()
        policy = make_refresh_policy(name)
        policy.resilience = manager
        grid_network.add_edge(6, 7, 55.0, bidirectional=True)
        return policy, manager, oracle

    @staticmethod
    def _recover(grid_network, manager, oracle):
        """Clear every fault, let the breaker's recovery probe close it and
        revert the burst."""
        oracle.injector.config = oracle.injector.config.with_overrides(
            rebuild_failure_rate=0.0, repair_failure_rate=0.0
        )
        manager.before_dispatch(grid_network, oracle, now=10.0)
        assert manager.oracle_breaker.state is BreakerState.CLOSED
        grid_network.add_edge(6, 7, 10.0, bidirectional=True)

    @pytest.mark.parametrize("backend", ["ch", "hub_label"])
    def test_coalesce_stays_stale_until_a_rebuild_lands(self, grid_network, backend):
        """A failed rebuild at the quiet boundary leaves ``coalesce`` on the
        exact fallback with its stale clock running; the clock stops, and
        books the whole window, when a later rebuild lands."""
        policy, manager, oracle = self._guarded_policy(
            grid_network, backend, "coalesce", rebuild_failure_rate=1.0
        )
        policy.on_mutations(oracle)
        policy.on_batch_start(oracle, False)
        assert policy.stats.rebuilds == 0 and oracle.serving_fallback
        assert policy.stats.stale_seconds == 0.0  # still running
        reference = DistanceOracle(grid_network, cache_size=0, backend="dijkstra")
        assert oracle.cost(6, 7) == pytest.approx(reference.cost(6, 7))
        self._recover(grid_network, manager, oracle)
        policy.on_mutations(oracle)
        policy.on_batch_start(oracle, False)
        assert policy.stats.rebuilds == 1 and not oracle.serving_fallback
        assert policy.stats.stale_seconds > 0.0

    @pytest.mark.parametrize("backend", ["ch", "hub_label"])
    def test_repair_waits_on_the_fallback_when_the_ladder_is_exhausted(
        self, grid_network, backend
    ):
        """Repair and its rebuild both failing leave ``repair`` on the exact
        fallback, stale, with nothing booked as a refresh; the next burst's
        repair clears it."""
        policy, manager, oracle = self._guarded_policy(
            grid_network, backend, "repair",
            repair_failure_rate=1.0, rebuild_failure_rate=1.0,
        )
        policy.on_mutations(oracle)
        assert oracle.serving_fallback
        assert policy.stats.repairs == 0 and policy.stats.rebuilds == 0
        assert policy.stats.stale_seconds == 0.0  # still running
        self._recover(grid_network, manager, oracle)
        policy.on_mutations(oracle)
        assert policy.stats.repairs == 1 and policy.stats.rebuilds == 0
        assert not oracle.serving_fallback and not oracle.is_stale
        assert policy.stats.stale_seconds > 0.0


# --------------------------------------------------------------------- #
# end-to-end chaos runs (the acceptance gate)
# --------------------------------------------------------------------- #
SMALL = dict(scale=0.05, city_scale=0.35)


def _chaos_metrics(policy: str, *, chaos: str) -> MetricsCollector:
    return run(RunSpec(
        scenario="stadium_surge", backend="ch",
        refresh_policy=policy, chaos=chaos, **SMALL,
    )).simulation.metrics


class TestChaosRuns:
    def test_same_seed_runs_are_identical(self):
        first = _chaos_metrics("repair", chaos="flaky_oracle")
        second = _chaos_metrics("repair", chaos="flaky_oracle")
        assert deterministic_summary(first) == deterministic_summary(second)
        assert first.faults_injected > 0

    @pytest.mark.parametrize("policy", REFRESH_POLICIES)
    def test_stadium_surge_survives_meltdown(self, policy):
        # The hard invariant: the run completes and the resilience machinery
        # actually engaged.  That every dispatch ran on an oracle the probe
        # had just checked is pinned by
        # test_every_dispatch_runs_on_a_checked_oracle.
        metrics = _chaos_metrics(policy, chaos="oracle_meltdown")
        assert metrics.faults_injected > 0
        assert metrics.breaker_trips > 0
        assert metrics.self_heals > 0
        assert metrics.service_rate > 0
        again = _chaos_metrics(policy, chaos="oracle_meltdown")
        assert deterministic_summary(metrics) == deterministic_summary(again)

    @pytest.mark.parametrize("policy", ["coalesce", "repair"])
    @pytest.mark.parametrize("scenario", ["stadium_surge", "bridge_closure"])
    @pytest.mark.parametrize("chaos", ["oracle_meltdown", "flaky_oracle"])
    def test_every_dispatch_runs_on_a_checked_oracle(
        self, monkeypatch, chaos, scenario, policy
    ):
        """The pre-dispatch probe is the one exactness gate: no dispatch,
        primary or degraded, and no post-run advance sees a corrupted oracle,
        nor a stale one off its exact fallback.  Reads flags only -- an
        oracle call would draw a latency spike and move the fault sequence."""
        seen: list[DistanceOracle] = []
        dispatch = PruneGDPDispatcher.dispatch

        def checked(self, context):
            oracle = context.oracle
            assert not oracle.corrupted, len(seen)
            assert oracle.serving_fallback or not oracle.is_stale, len(seen)
            seen.append(oracle)
            return dispatch(self, context)

        monkeypatch.setattr(PruneGDPDispatcher, "dispatch", checked)
        metrics = run(RunSpec(
            scenario=scenario, backend="ch", refresh_policy=policy,
            chaos=chaos, **SMALL,
        )).simulation.metrics
        assert seen and metrics.faults_injected > 0
        oracle = seen[-1]
        assert not oracle.corrupted
        assert oracle.serving_fallback or not oracle.is_stale

    def test_degraded_dispatcher_engages_under_spikes(self):
        metrics = _chaos_metrics("coalesce", chaos="oracle_meltdown")
        assert metrics.batch_overruns > 0
        assert metrics.degraded_batches > 0

    def test_chaos_metrics_quiet_without_chaos(self):
        metrics = run(RunSpec(
            scenario="stadium_surge", backend="ch",
            refresh_policy="repair", **SMALL,
        )).simulation.metrics
        resilience = [
            row.field for row in METRICS
            if (row.source or "").startswith("resilience.")
        ]
        assert len(resilience) == 8
        assert {field: getattr(metrics, field) for field in resilience} == dict.fromkeys(
            resilience, 0
        )

    def test_chaos_resilience_defaults_are_deterministic(self):
        """The fixed behaviour: a 0.05 s budget charged with injected
        virtual latency only (breaker decisions never depend on the host's
        wall clock), four probe pairs per check."""
        assert ResilienceManager.BATCH_TIME_BUDGET == 0.05
        assert ResilienceManager.PROBE_PAIRS == 4
        manager = ResilienceManager(
            chaos=ChaosConfig(query_spike_rate=1.0, spike_seconds=0.03)
        )
        # No injected latency: within budget, however long dispatch took.
        manager.observe_batch(degraded=False, now=0.0)
        assert manager.stats.batch_overruns == 0
        manager.injector.query_spike()
        manager.observe_batch(degraded=False, now=1.0)
        assert manager.stats.batch_overruns == 0  # 0.03 s <= 0.05 s
        manager.injector.query_spike()
        manager.injector.query_spike()
        manager.observe_batch(degraded=False, now=2.0)
        assert manager.stats.batch_overruns == 1  # 0.06 s > 0.05 s
