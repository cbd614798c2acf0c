"""The pass order of one workload, run inside its own child process.

set-up (timed, repeated) -> one untimed batch ``Simulator.run`` pass (the
parity reference, doubling as warm-up) -> timed replays with tracing off,
each over a fresh oracle, fleet, dispatcher and service -> one traced and
checked replay.  Timed metrics are medians over the repeats; exact metrics
must agree in every pass or the run is marked incorrect.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro import SpanTracer, use_tracer
from repro.simulation.events import EventKind

import build
import calibrate
import metrics
import verify
import workloads
from metrics import percentile
from probe import LayerProbe, replay_sites, setup_sites
from replay import Replay, exact_metrics, pairs_digest, replay


@dataclass
class Plan:
    """What the parent asked this child to run."""

    workload: str
    seed: int
    #: Untraced replays: at least ``repeats`` (one or more), and until
    #: ``seconds`` have been measured.
    repeats: int
    seconds: float
    #: Set the workload up at least ``setups`` times and until
    #: ``setup_seconds`` went into it (``setup_s`` is the median).
    setups: int
    setup_seconds: float
    #: Report the end-to-end metrics of the untraced replays.
    timed: bool
    #: Run the traced and checked replay and report the per-layer metrics.
    traced: bool
    #: Share of the workload's requests to generate (the smoke mode's 5 %).
    fraction: float = 1.0
    #: Where to write the traced replay's spans (JSONL), if anywhere.
    spans_path: str | None = None


@dataclass
class Ledger:
    """Everything one child reports back."""

    failures: list[str] = field(default_factory=list)
    unanswered: int = 0
    exact: dict[str, dict] = field(default_factory=dict)

    def check(self, name: str, built, run: Replay, vehicles, reference) -> None:
        """Verify one replay and file its exact metrics under ``name``."""
        failures, unanswered = verify.check_replay(
            built.trace, run.result, vehicles,
            reference_pairs=reference, static_world=built.spec.static,
        )
        self.failures += [f"{name}: {failure}" for failure in failures]
        self.unanswered = max(self.unanswered, unanswered)
        self.exact[name] = exact_metrics(built.trace, run.result)


def _set_up(plan: Plan, kernel: calibrate.Kernel):
    """Build the workload repeatedly (see ``Plan.setups``); keep the last one.

    Returns the workload, then per set-up its seconds at reference speed, its
    wall seconds and its routing-build (wall) seconds.
    """
    spec = workloads.WORKLOADS_BY_NAME[plan.workload]
    setup_s, raw_s, build_s, built = [], [], [], None
    begin = time.perf_counter()
    while (
        len(setup_s) < plan.setups
        or time.perf_counter() - begin < plan.setup_seconds
    ):
        built = None
        gc.collect()
        with LayerProbe(setup_sites()) as probe, calibrate.BackgroundGauge(
            kernel
        ) as gauge:
            start = time.perf_counter()
            built = build.build(spec, plan.seed, fraction=plan.fraction)
            build.force_preprocessing(built)
            raw_s.append(time.perf_counter() - start)
        setup_s.append(gauge.scale(raw_s[-1]))
        build_s.append(probe.self_s("network.routing.build"))
    return built, setup_s, raw_s, build_s


def _batch_reference(built, ledger: Ledger) -> list[tuple[int, int]] | None:
    """The batch-mode pass: warms the process up and, in a static world,
    gives the assignments every replay has to reproduce."""
    simulation = build.make_simulator(built).run()
    if not built.spec.static:
        return None
    pairs = [
        (event.subject, event.other)
        for event in simulation.events.of_kind(EventKind.REQUEST_ASSIGNED)
    ]
    ledger.exact["batch"] = {
        "service_rate": simulation.service_rate,
        "unified_cost": simulation.unified_cost,
        "digest": pairs_digest(pairs),
    }
    return pairs


def _timed_replays(
    plan: Plan, built, ledger: Ledger, reference, kernel: calibrate.Kernel
) -> dict[str, list[float]]:
    """Untraced replays; every timing is scaled to reference speed tick by tick."""
    samples: dict[str, list[float]] = {
        "replay_raw_s": [], "requests_per_s": [], "tick_ms_p50": [],
    }
    begin = time.perf_counter()
    while (
        len(samples["replay_raw_s"]) < plan.repeats
        or time.perf_counter() - begin < plan.seconds
    ):
        gc.collect()
        service = build.make_service(built)
        gauge = calibrate.SpeedGauge(kernel)
        run = replay(service, built.trace, after_tick=gauge)
        ticks = [
            seconds * factor for seconds, factor in zip(run.tick_s, gauge.factors())
        ]
        between_ticks = run.wall_s - sum(run.tick_s)
        wall = sum(ticks) + between_ticks * calibrate.speed_factor(gauge.samples)
        samples["replay_raw_s"].append(run.wall_s)
        samples["requests_per_s"].append(len(built.trace) / wall)
        samples["tick_ms_p50"].append(percentile(ticks, 50.0) * 1e3)
        name = f"timed{len(samples['replay_raw_s'])}"
        ledger.check(name, built, run, service.vehicles, reference)
    return samples


def _traced_replay(plan: Plan, built, ledger: Ledger, reference):
    tracer = SpanTracer(capacity=1_000_000)
    service = build.make_service(built)
    watch = verify.CapacityWatch(service.vehicles)
    gc.collect()
    with LayerProbe(replay_sites()) as probe, use_tracer(tracer):
        run = replay(service, built.trace, after_tick=watch)
    if not probe.restored():
        ledger.failures.append("traced: the probe left a wrapped attribute behind")
    ledger.failures += [f"traced: {failure}" for failure in watch.failures]
    ledger.check("traced", built, run, service.vehicles, reference)
    stage_s: dict[str, float] = {}
    for record in tracer.records:
        stage_s[record.name] = stage_s.get(record.name, 0.0) + record.duration
    if plan.spans_path:
        with open(plan.spans_path, "w") as handle:
            for span in probe.spans_jsonl():
                handle.write(json.dumps(span) + "\n")
    return probe, run, service, stage_s


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    probe: LayerProbe,
    traced: Replay,
    service,
    *,
    stage_s: dict[str, float],
    untraced_wall_s: float,
    build_s: float,
    import_s: float,
    exact: dict,
) -> dict[str, float]:
    """Every per-layer metric of one traced replay, keyed by catalogue name.

    ``probe`` is the removed probe, ``traced`` the replay it watched,
    ``service`` the service that ran it, ``stage_s`` the summed durations of
    the program's own stage spans and ``exact`` that replay's exact metrics.
    """
    result = traced.result
    stats, sim = result.stats, result.simulation.metrics
    dispatcher = service.dispatcher
    builder = getattr(dispatcher, "builder", None)
    grouping = getattr(dispatcher, "grouping_stats", None)
    calls, counts = probe.calls, probe.counts
    values = {
        metric.name: probe.self_s(metrics.probe_row(metric.name))
        for metric in metrics.PER_LAYER
        if metric.partition
    }
    coverage = _ratio(sum(values.values()), traced.wall_s)
    values.update({
        metric.name: probe.total_s(metrics.probe_row(metric.name))
        for metric in metrics.PER_LAYER
        if metric.name.endswith("_total_s")
    })
    pairs_tested = builder.stats.pairs_tested if builder else 0
    edges_added = builder.stats.edges_added if builder else 0
    generated = grouping.groups_generated if grouping else 0
    attempted = grouping.merges_attempted if grouping else 0
    values.update({
        "service.submit_calls": calls("service.submit"),
        "service.tick_ms_p95": percentile(traced.tick_s, 95.0) * 1e3,
        "service.tick_ms_p99": percentile(traced.tick_s, 99.0) * 1e3,
        "service.tick_ms_max": max(traced.tick_s) * 1e3,
        "service.queue_high_watermark": stats.queue_high_watermark,
        "service.shed": (
            stats.rejected.get("queue_full", 0)
            + stats.rejected.get("shed_oldest", 0)
        ),
        "service.events_emitted": len(result.events) + stats.events_dropped,
        "service.assign_wait_sim_s_p95": exact["assign_wait_sim_s_p95"],
        "simulation.batches": calls("simulation.process_batch"),
        "simulation.pending_mean": _ratio(
            counts.get("pending", 0), calls("dispatch.dispatch")
        ),
        "model.advance_to_calls": calls("model.advance_to"),
        "model.route_state_calls": calls("model.route_state"),
        "model.schedule_evaluate_calls": calls("model.schedule_evaluate"),
        "dispatch.candidate_vehicles_calls": calls("dispatch.candidate_vehicles"),
        "dispatch.candidates_per_request": _ratio(
            counts.get("candidates", 0), calls("dispatch.candidate_vehicles")
        ),
        "dispatch.rounds": getattr(dispatcher, "rounds_executed", 0),
        "dispatch.sard.sync_graph_s": stage_s.get("sard.sync_graph", 0.0),
        "dispatch.sard.build_queues_s": stage_s.get("sard.build_queues", 0.0),
        "dispatch.sard.rounds_s": stage_s.get("sard.rounds", 0.0),
        "dispatch.sard.materialize_s": stage_s.get("sard.materialize", 0.0),
        "shareability.update_requests": counts.get("new_requests", 0),
        "shareability.pairs_tested": pairs_tested,
        "shareability.edges_added": edges_added,
        "shareability.edge_yield": _ratio(edges_added, pairs_tested),
        "shareability.pruned_by_angle": (
            builder.stats.pruned_by_angle if builder else 0
        ),
        "shareability.loss_calls": calls("shareability.loss"),
        "grouping.build_groups_calls": calls("grouping.build_groups"),
        "grouping.groups_generated": generated,
        "grouping.merges_attempted": attempted,
        "grouping.group_yield": _ratio(generated, attempted),
        "insertion.best_insertion_calls": calls("insertion.best_insertion"),
        "insertion.calls_per_request": _ratio(
            calls("insertion.best_insertion"), calls("service.submit")
        ),
        "insertion.feasible_share": _ratio(
            counts.get("feasible", 0), calls("insertion.best_insertion")
        ),
        "insertion.evaluations_per_call": _ratio(
            calls("model.schedule_evaluate"), calls("insertion.best_insertion")
        ),
        "insertion.best_pair_schedule_calls": calls("insertion.best_pair_schedule"),
        "network.grid_index.query_radius_calls": calls(
            "network.grid_index.query_radius"
        ),
        "network.grid_index.move_calls": calls("network.grid_index.move"),
        "network.oracle.queries": sim.shortest_path_queries,
        "network.oracle.hit_share": _ratio(
            service.oracle.stats.cache_hits, sim.shortest_path_queries
        ),
        "network.oracle.queries_per_distinct_pair": _ratio(
            calls("network.oracle.cost"), len(probe.pairs)
        ),
        "network.oracle.prefetch_calls": calls("network.oracle.prefetch"),
        "network.routing.searches": sim.oracle_searches,
        "network.routing.settled_nodes": sim.oracle_settled_nodes,
        "network.routing.build_s": build_s,
        "scenarios.rebuilds": sim.oracle_rebuilds,
        "scenarios.repairs": sim.oracle_repairs,
        "scenarios.stale_s": sim.oracle_stale_seconds,
        "scenarios.events_applied": sim.scenario_events,
        "setup.import_s": import_s,
        "trace.coverage": coverage,
        "trace.overhead_ratio": _ratio(traced.wall_s, untraced_wall_s),
        "mem.estimate_peak_mb": exact["mem.estimate_peak_mb"],
    })
    return values


def _timed_value(raw: list[float], unit: str) -> dict:
    """Median, quartiles and the raw values of one timed metric."""
    q1, _, q3 = (
        statistics.quantiles(raw, n=4) if len(raw) > 1 else (raw[0],) * 3
    )
    return {
        "value": statistics.median(raw), "unit": unit,
        "q1": q1, "q3": q3, "raw": raw,
    }


def run(plan: Plan, kernel: calibrate.Kernel, import_s: float) -> dict:
    """Run the passes of ``plan`` and return the child's JSON document.

    ``import_s`` is what importing the program took, at reference speed.
    """
    ledger = Ledger()
    built, setup_s, setup_raw_s, build_s = _set_up(plan, kernel)
    reference = _batch_reference(built, ledger)
    document: dict = {
        "workload": plan.workload, "seed": plan.seed, "fraction": plan.fraction,
        "requests": len(built.trace),
    }

    samples = _timed_replays(plan, built, ledger, reference, kernel)
    exact = ledger.exact["timed1"]
    if plan.timed:
        samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ]
        samples["setup_s"] = setup_s
        document["end_to_end"] = {
            metric.name: (
                {"value": exact[metric.name], "unit": metric.unit}
                if metric.exact
                else _timed_value(samples[metric.name], metric.unit)
            )
            for metric in metrics.END_TO_END
        }
        document["raw_wall"] = {
            "replay_s": samples["replay_raw_s"], "setup_s": setup_raw_s,
        }
        document["ticks"] = int(ledger.exact["timed1"]["ticks"])

    if plan.traced:
        probe, traced, service, stage_s = _traced_replay(
            plan, built, ledger, reference
        )
        values = layer_metrics(
            probe, traced, service, stage_s=stage_s,
            untraced_wall_s=statistics.median(samples["replay_raw_s"]),
            build_s=statistics.median(build_s),
            import_s=import_s,
            exact=ledger.exact["traced"],
        )
        if values["trace.coverage"] < metrics.MIN_COVERAGE:
            ledger.failures.append(
                f"trace.coverage {values['trace.coverage']:.3f} < "
                f"{metrics.MIN_COVERAGE}"
            )
        document["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics.PER_LAYER
        }
        document["traced_s"] = traced.wall_s

    ledger.failures += verify.check_consistent(ledger.exact)
    document.update(
        correct=not ledger.failures,
        failures=ledger.failures,
        ops_attempted=exact["ops_attempted"],
        ops_unserved=exact["ops_unserved"],
        ops_failed=ledger.unanswered,
        digest=exact["digest"],
    )
    return document
