"""Tests for the observability layer: tracer, exposition, instrumentation.

The exporter golden-file tests live in ``test_exporters.py``; this module
covers the tracer semantics (nesting, the disabled no-op identity, ring
buffer eviction), the shape of the Prometheus exposition, the event-log
query helpers,
the metrics facade, and the end-to-end instrumentation contract: with
tracing on, the per-stage spans of a dispatch batch account for the batch's
measured dispatch time.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.shortest_path import DistanceOracle
from repro.observability import (
    NOOP_SPAN,
    NULL_TRACER,
    SpanTracer,
    get_tracer,
    prometheus_text,
    set_tracer,
    tracing,
    use_tracer,
)
from repro.observability.export import LATENCY_BUCKETS_S
from repro.service.schemas import ServiceStats
from repro.service.server import SERVICE_METRICS
from repro.simulation.events import Event, EventKind, EventLog
from repro.simulation.metrics import METRICS, BatchRecord, MetricsCollector, export_rows

GOLDEN_DIR = Path(__file__).parent / "golden"


class StepClock:
    """Deterministic clock: every call advances by a fixed step."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# --------------------------------------------------------------------- #
# SpanTracer
# --------------------------------------------------------------------- #
class TestSpanTracer:
    def test_nesting_records_parent_and_depth(self):
        tracer = SpanTracer(clock=StepClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_rec, outer_rec = tracer.records
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer.span_id
        assert inner_rec.depth == 1
        assert outer_rec.parent_id is None
        assert outer_rec.depth == 0
        assert [r for r in tracer if r.parent_id == outer_rec.span_id] == [inner_rec]

    def test_completion_order_children_before_parents(self):
        tracer = SpanTracer(clock=StepClock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [record.name for record in tracer.records] == ["c", "b", "a"]

    def test_durations_from_injected_clock(self):
        tracer = SpanTracer(clock=StepClock(0.5))
        with tracer.span("timed"):
            pass
        (record,) = tracer.records
        # Enter consumes one tick, exit the next: exactly one step apart.
        assert record.duration == 0.5

    def test_sim_time_inherited_and_overridable(self):
        tracer = SpanTracer(clock=StepClock())
        with tracer.span("before"):
            pass
        tracer.set_sim_time(42.0)
        with tracer.span("inherits"):
            pass
        with tracer.span("explicit", sim_time=7.0):
            pass
        by_name = {record.name: record for record in tracer.records}
        assert by_name["before"].sim_time is None
        assert by_name["inherits"].sim_time == 42.0
        assert by_name["explicit"].sim_time == 7.0

    def test_tags_from_kwargs_and_tag_method(self):
        tracer = SpanTracer(clock=StepClock())
        with tracer.span("tagged", batch=3, algorithm="SARD") as span:
            span.tag("assignments", 5)
        (record,) = tracer.records
        assert record.tags == {"batch": 3, "algorithm": "SARD", "assignments": 5}

    def test_ring_buffer_evicts_oldest(self):
        tracer = SpanTracer(capacity=3, clock=StepClock())
        for index in range(5):
            tracer.event(f"e{index}")
        assert len(tracer) == 3
        assert tracer.evicted == 2
        assert [record.name for record in tracer.records] == ["e2", "e3", "e4"]

    def test_clear_resets_buffer_and_eviction_count(self):
        tracer = SpanTracer(capacity=1, clock=StepClock())
        tracer.event("one")
        tracer.event("two")
        assert tracer.evicted == 1
        tracer.clear()
        assert tracer.records == ()
        assert tracer.evicted == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanTracer(0)

    def test_exception_unwinds_nested_spans(self):
        tracer = SpanTracer(clock=StepClock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [record.name for record in tracer.records] == ["inner", "outer"]
        assert tracer._stack == []

    def test_event_parented_to_innermost_open_span(self):
        tracer = SpanTracer(clock=StepClock())
        with tracer.span("parent") as parent:
            tracer.event("leaf", duration=0.25, policy="eager")
        leaf, _ = tracer.records
        assert leaf.parent_id == parent.span_id
        assert leaf.duration == 0.25
        assert leaf.tags == {"policy": "eager"}


# --------------------------------------------------------------------- #
# disabled tracing: the null tracer must be allocation-free and inert
# --------------------------------------------------------------------- #
class TestNullTracer:
    def test_default_active_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert get_tracer().enabled is False

    def test_span_returns_shared_noop_instance(self):
        assert NULL_TRACER.span("anything", batch=1) is NOOP_SPAN
        assert NULL_TRACER.span("other") is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.tag("key", 1)
        NULL_TRACER.event("event", duration=1.0)
        NULL_TRACER.set_sim_time(5.0)
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.evicted == 0

    def test_use_tracer_installs_and_restores(self):
        tracer = SpanTracer(clock=StepClock())
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_disables(self):
        tracer = SpanTracer(clock=StepClock())
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
            set_tracer(None)
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(previous)


# --------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------- #
_SERIES = re.compile(r'(?P<name>[a-z_][a-z0-9_]*)(\{le="(?P<le>[^"]+)"\})? (?P<value>\S+)')


def _series(text: str) -> list[tuple[str, str | None, float]]:
    """``(name, le, value)`` of every series line, asserting each line's shape."""
    series = []
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.split(" ", 2)[1] in ("HELP", "TYPE"), line
            continue
        match = _SERIES.fullmatch(line)
        assert match is not None, line
        series.append((match["name"], match["le"], float(match["value"])))
    return series


def _histogram(samples: list[float]) -> tuple[list[tuple[float, float]], float, float]:
    """Rendered ``(le, cumulative count)`` pairs, ``_sum`` and ``_count``."""
    text = prometheus_text([], {"h.seconds": ("help", samples)})
    series = _series(text)
    buckets = [
        (float(le), value) for name, le, value in series if name == "repro_h_seconds_bucket"
    ]
    values = {name: value for name, le, value in series if le is None}
    return buckets, values["repro_h_seconds_sum"], values["repro_h_seconds_count"]


class TestExposition:
    def test_every_series_line_has_the_text_format_shape_in_sorted_name_order(self):
        metrics = MetricsCollector(total_requests=12, assigned_requests=9, penalty=3.5)
        metrics.record_batch(_batch(0, 0.004))
        text = prometheus_text(
            export_rows(METRICS, metrics),
            {"dispatch.batch_seconds": ("Per-batch dispatch latency", [0.004]), "a.b": ("", [])},
        )
        _series(text)  # asserts every line's shape
        families: list[str] = []
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                families.append(line.split()[2])
            elif not line.startswith("#"):
                # A series sits under its own family's TYPE line.
                name = line.split()[0].split("{")[0]
                suffixes = ("", "_bucket", "_sum", "_count")
                assert name in {families[-1] + suffix for suffix in suffixes}
        assert families == sorted(families)
        assert families[0] == "repro_a_b" and "repro_dispatch_batch_seconds" in families

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=60.0), max_size=40))
    def test_buckets_are_cumulative_and_agree_with_sum_and_count(self, samples):
        buckets, total, count = _histogram(samples)
        assert [le for le, _ in buckets] == [*LATENCY_BUCKETS_S, float("inf")]
        cumulative = [value for _, value in buckets]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == count == len(samples)
        assert total == sum(samples)
        for le, value in buckets:
            assert value == sum(sample <= le for sample in samples)

    def test_a_sample_on_a_bound_counts_in_that_bounds_bucket(self):
        bound = LATENCY_BUCKETS_S[3]
        buckets, _, _ = _histogram([bound])
        by_le = dict(buckets)
        assert by_le[LATENCY_BUCKETS_S[2]] == 0
        assert by_le[bound] == 1

    def test_rows_render_their_help_type_and_value(self):
        stats = ServiceStats(
            received=9, accepted=4, rejected={"queue_full": 3, "shed_oldest": 2}, batches=2,
            queue_depth=1, sim_time=12.5,
        )
        text = prometheus_text(export_rows(SERVICE_METRICS, stats))
        assert "# HELP repro_service_rejected Requests rejected (all reasons)" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_rejected 5" in text.splitlines()
        assert "repro_service_sim_time 12.5" in text.splitlines()


# --------------------------------------------------------------------- #
# EventLog query helpers
# --------------------------------------------------------------------- #
class TestEventLog:
    def _log(self) -> EventLog:
        log = EventLog()
        log.record(Event(time=1.0, kind=EventKind.REQUEST_RELEASED, subject=1))
        log.record(Event(time=2.0, kind=EventKind.REQUEST_ASSIGNED, subject=1, other=7))
        log.record(Event(time=3.0, kind=EventKind.REQUEST_RELEASED, subject=2))
        log.record(Event(time=9.0, kind=EventKind.REQUEST_EXPIRED, subject=2))
        return log

    def test_capped_log_counts_dropped_events(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 2)
        log = EventLog()
        for index in range(5):
            log.record(Event(time=float(index), kind=EventKind.REQUEST_RELEASED, subject=index))
        assert len(log) == 2
        assert log.dropped == 3
        assert [event.subject for event in log] == [0, 1]

    def test_of_kind_with_time_window(self):
        log = self._log()
        assert [e.time for e in log.of_kind(EventKind.REQUEST_RELEASED)] == [1.0, 3.0]
        assert [e.time for e in log.of_kind(EventKind.REQUEST_RELEASED, start=2.0)] == [3.0]
        assert [e.time for e in log.of_kind(EventKind.REQUEST_RELEASED, end=2.0)] == [1.0]
        assert log.of_kind(EventKind.REQUEST_RELEASED, start=4.0, end=8.0) == []



# --------------------------------------------------------------------- #
# MetricsCollector facade
# --------------------------------------------------------------------- #
def _batch(index: int, seconds: float) -> BatchRecord:
    return BatchRecord(
        index=index,
        start_time=index * 5.0,
        end_time=(index + 1) * 5.0,
        released=1,
        assigned=1,
        pending_after=0,
        dispatch_seconds=seconds,
    )


class TestMetricsFacade:
    def test_dispatch_latency_percentiles(self):
        metrics = MetricsCollector()
        for index, seconds in enumerate((0.01, 0.02, 0.03, 0.04, 0.1)):
            metrics.record_batch(_batch(index, seconds))
        latency = metrics.dispatch_latency()
        assert latency["dispatch_p50_seconds"] == pytest.approx(0.03)
        assert latency["dispatch_p95_seconds"] == pytest.approx(0.088)
        assert latency["dispatch_max_seconds"] == pytest.approx(0.1)

    def test_dispatch_latency_empty_run(self):
        latency = MetricsCollector().dispatch_latency()
        assert latency == {
            "dispatch_p50_seconds": 0.0,
            "dispatch_p95_seconds": 0.0,
            "dispatch_max_seconds": 0.0,
        }

    def test_summary_contains_latency_keys(self):
        metrics = MetricsCollector()
        metrics.record_batch(_batch(0, 0.05))
        summary = metrics.summary()
        assert summary["dispatch_p50_seconds"] == pytest.approx(0.05)
        assert summary["dispatch_max_seconds"] == pytest.approx(0.05)
        assert summary["num_batches"] == 1.0

    def test_table_is_complete(self, traced_sard_run):
        """One table: every numeric field of the store is a row, every row
        is in ``summary()`` under its field name and -- when named -- in the
        exposition under that name, help and kind, and the exported names of
        a finished run are the committed list."""
        metrics = traced_sard_run[0].metrics
        numeric = {
            spec.name
            for spec in dataclasses.fields(MetricsCollector)
            if spec.type in ("int", "float")
        } | {"service_rate", "unified_cost"}
        assert {row.field for row in METRICS} == numeric
        summary = metrics.summary()
        rows = export_rows(METRICS, metrics)
        text = prometheus_text(rows).splitlines()
        exported = {spec.name: value for spec, value in rows}
        for row in METRICS:
            value = float(getattr(metrics, row.field))
            assert summary[row.field] == value
            if row.name is not None:
                assert exported[row.name] == value
                name = "repro_" + row.name.replace(".", "_")
                assert f"# HELP {name} {row.help}" in text
                assert f"# TYPE {name} {row.kind}" in text
                assert float(next(line for line in text if line.startswith(f"{name} ")).split()[1]) == value
        golden = json.loads((GOLDEN_DIR / "metric_names.json").read_text())
        assert sorted(summary) == golden["summary"]
        assert sorted(exported) == golden["rows"]
        named = [row.name for row in SERVICE_METRICS if row.name is not None]
        assert sorted(named) == golden["service_rows"]


# --------------------------------------------------------------------- #
# end-to-end instrumentation
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_sard_run():
    """One SARD simulation with tracing on (shared across assertions)."""
    from repro.dispatch import make_dispatcher
    from repro.simulation.engine import Simulator
    from repro.workloads.presets import make_workload

    workload = make_workload(
        "nyc",
        city_scale=0.4,
        workload_overrides={"num_requests": 60, "num_vehicles": 10},
    )
    oracle = workload.fresh_oracle()
    simulator = Simulator(
        network=workload.network,
        oracle=oracle,
        vehicles=workload.fresh_vehicles(),
        requests=list(workload.requests),
        dispatcher=make_dispatcher("SARD"),
        config=workload.simulation_config,
        record_events=False,
    )
    with tracing(oracle=oracle) as tracer:
        result = simulator.run()
    return result, tracer


class TestInstrumentedSimulation:
    def test_expected_stage_spans_present(self, traced_sard_run):
        _, tracer = traced_sard_run
        names = {record.name for record in tracer.records}
        assert {
            "sim.advance",
            "scenario.step",
            "dispatch.batch",
            "sard.sync_graph",
            "sard.build_queues",
            "sard.rounds",
            "sard.materialize",
        } <= names

    def test_stage_spans_account_for_dispatch_time(self, traced_sard_run):
        """Acceptance gate: per-batch stage spans sum within 5% of the
        batch's measured ``dispatch_seconds`` (aggregated over the run, and
        per batch for every batch large enough to measure reliably)."""
        result, tracer = traced_sard_run
        batches = {record.index: record for record in result.metrics.batch_records}
        total_stage = 0.0
        for span in tracer.records:
            if span.name != "dispatch.batch":
                continue
            stage_sum = sum(
                child.duration for child in tracer
                if child.parent_id == span.span_id and child.name.startswith("sard.")
            )
            total_stage += stage_sum
            measured = batches[span.tags["batch"]].dispatch_seconds
            if measured >= 0.005:  # sub-5ms batches are timer-noise bound
                assert stage_sum == pytest.approx(measured, rel=0.05)
        total_measured = result.metrics.dispatch_seconds
        assert total_stage == pytest.approx(total_measured, rel=0.05)

    def test_batch_spans_carry_sim_time_and_tags(self, traced_sard_run):
        result, tracer = traced_sard_run
        batch_spans = [r for r in tracer.records if r.name == "dispatch.batch"]
        assert len(batch_spans) == result.metrics.num_batches
        for span in batch_spans:
            assert span.sim_time is not None
            assert span.tags["algorithm"] == "SARD"
            assert "pending" in span.tags and "vehicles" in span.tags

    def test_sampled_oracle_events_recorded(self, traced_sard_run):
        _, tracer = traced_sard_run
        oracle_events = [
            r for r in tracer.records
            if r.name in ("oracle.query", "oracle.many_to_many")
        ]
        assert oracle_events
        for event in oracle_events:
            assert "backend" in event.tags
            assert event.duration >= 0.0

    def test_disabled_run_records_nothing(self):
        from repro.dispatch import make_dispatcher
        from repro.simulation.engine import Simulator
        from repro.workloads.presets import make_workload

        workload = make_workload(
            "nyc",
            city_scale=0.4,
            workload_overrides={"num_requests": 20, "num_vehicles": 5},
        )
        assert get_tracer() is NULL_TRACER
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("SARD"),
            config=workload.simulation_config,
            record_events=False,
        )
        result = simulator.run()
        assert result.metrics.total_requests == 20
        assert get_tracer().records == ()

    def test_every_computed_query_is_traced(self, grid_network):
        """One ``oracle.query`` record per query the backend answered: not
        the cache hits, not the same-node answers."""
        oracle = DistanceOracle(grid_network)
        tracer = SpanTracer(clock=StepClock())
        oracle.set_query_tracing(tracer)
        nodes = list(grid_network.nodes())
        pairs = [(u, v) for u in nodes[:6] for v in nodes[-6:] + nodes[:3]] * 2
        for u, v in pairs:
            oracle.cost(u, v)
        stats = oracle.stats
        computed = stats.queries - stats.cache_hits - sum(u == v for u, v in pairs)
        assert 1 < computed < len(pairs)
        assert sum(r.name == "oracle.query" for r in tracer.records) == computed

    def test_traced_and_untraced_costs_identical(self, grid_network):
        plain = DistanceOracle(grid_network, cache_size=0)
        traced = DistanceOracle(grid_network, cache_size=0)
        tracer = SpanTracer(clock=StepClock())
        traced.set_query_tracing(tracer)
        nodes = list(grid_network.nodes())
        for u in nodes[:6]:
            for v in nodes[-6:]:
                assert traced.cost(u, v) == plain.cost(u, v)
        assert any(r.name == "oracle.query" for r in tracer.records)
        traced.set_query_tracing(None)
        tracer.clear()
        assert traced.cost(nodes[0], nodes[-1]) == plain.cost(nodes[0], nodes[-1])
        assert tracer.records == ()
