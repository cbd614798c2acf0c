"""Golden-file tests for the observability exporters.

The exporters are pure functions of their inputs, and the tracer accepts an
injected clock, so a fully deterministic trace + metric rows can be rendered
and compared byte-for-byte against committed golden files.  To regenerate
after an intentional format change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_exporters.py

then review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.observability import (
    TRACE_SCHEMA_VERSION,
    SpanTracer,
    aggregate_spans,
    markdown_report,
    prometheus_text,
    span_to_dict,
    spans_to_jsonl,
    write_run_artifacts,
)
from repro.simulation.metrics import MetricSpec

GOLDEN_DIR = Path(__file__).parent / "golden"


class StepClock:
    """Deterministic clock advancing half a second per call."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def build_fixture() -> tuple[SpanTracer, list, dict, dict]:
    """One small deterministic run: a traced batch, metric rows, latencies."""
    tracer = SpanTracer(capacity=16, clock=StepClock())
    tracer.set_sim_time(30.0)
    with tracer.span("dispatch.batch", batch=0, algorithm="SARD") as batch:
        with tracer.span("sard.sync_graph", stale=2):
            pass
        with tracer.span("sard.rounds", rounds=3) as rounds:
            rounds.tag("groups", 5)
        batch.tag("assignments", 4)
    tracer.event("oracle.rebuild", duration=1.5, policy="eager", backend="ch")

    rows = [
        (MetricSpec("total_requests", "Requests released", "requests.total"), 12),
        (MetricSpec("assigned_requests", "Requests assigned", "requests.assigned"), 9),
        (
            MetricSpec("service_rate", "Fraction of requests assigned", "sim.service_rate",
                       "gauge"),
            0.75,
        ),
    ]
    latencies = {
        "dispatch.batch_seconds": ("Per-batch dispatch latency", [0.0005, 0.004, 0.05, 0.2]),
    }

    summary = {
        "service_rate": 0.75,
        "unified_cost": 1234.5,
        "total_requests": 12.0,
        "dispatch_seconds": 2.5,
    }
    return tracer, rows, latencies, summary


def check_golden(name: str, produced: str) -> None:
    """Compare against (or, with REGEN_GOLDEN=1, rewrite) a golden file."""
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(produced, encoding="utf-8")
    assert produced == path.read_text(encoding="utf-8"), (
        f"{name} drifted from the golden file; regenerate with REGEN_GOLDEN=1 "
        f"if the change is intentional"
    )


# --------------------------------------------------------------------- #
# golden files
# --------------------------------------------------------------------- #
def test_jsonl_matches_golden():
    tracer, _, _, _ = build_fixture()
    check_golden("trace.jsonl", spans_to_jsonl(tracer.records))


def test_prometheus_matches_golden():
    _, rows, latencies, _ = build_fixture()
    check_golden("metrics.prom", prometheus_text(rows, latencies))


def test_markdown_report_matches_golden():
    tracer, _, latencies, summary = build_fixture()
    report = markdown_report(
        "Golden traced run",
        summary=summary,
        tracer=tracer,
        latencies=latencies,
        highlight_keys=("service_rate", "dispatch_seconds"),
    )
    check_golden("report.md", report)


# --------------------------------------------------------------------- #
# schema / structural properties
# --------------------------------------------------------------------- #
def test_jsonl_lines_are_versioned_objects():
    tracer, _, _, _ = build_fixture()
    lines = spans_to_jsonl(tracer.records).splitlines()
    assert len(lines) == len(tracer.records)
    for line in lines:
        payload = json.loads(line)
        assert payload["v"] == TRACE_SCHEMA_VERSION
        assert {"span_id", "parent_id", "name", "depth", "start_s", "duration_s"} <= set(payload)


def test_jsonl_empty_trace_is_empty_string():
    assert spans_to_jsonl(()) == ""


def test_span_to_dict_rounds_timings():
    tracer, _, _, _ = build_fixture()
    record = tracer.records[0]
    payload = span_to_dict(record)
    assert payload["start_s"] == round(record.start, 9)
    assert payload["duration_s"] == round(record.duration, 9)


def test_prometheus_histogram_series_shape():
    _, rows, latencies, _ = build_fixture()
    text = prometheus_text(rows, latencies)
    assert 'repro_dispatch_batch_seconds_bucket{le="+Inf"} 4' in text
    assert "repro_dispatch_batch_seconds_count 4" in text
    assert "# TYPE repro_requests_total counter" in text
    assert "# TYPE repro_sim_service_rate gauge" in text


def test_prometheus_empty_input_renders_nothing():
    assert prometheus_text([]) == ""
    assert prometheus_text([], {}) == ""


def test_aggregate_spans_orders_by_total_duration():
    tracer, _, _, _ = build_fixture()
    aggregates = aggregate_spans(tracer.records)
    assert [agg.name for agg in aggregates[:2]] == ["dispatch.batch", "oracle.rebuild"]
    by_name = {agg.name: agg for agg in aggregates}
    assert by_name["dispatch.batch"].count == 1
    assert by_name["oracle.rebuild"].total_s == 1.5
    assert by_name["sard.rounds"].mean_s == by_name["sard.rounds"].total_s


def test_write_run_artifacts_emits_all_three_formats(tmp_path):
    tracer, rows, latencies, summary = build_fixture()
    paths = write_run_artifacts(
        tmp_path, "run", title="Artifacts", summary=summary,
        tracer=tracer, rows=rows, latencies=latencies,
    )
    assert set(paths) == {"trace_jsonl", "prometheus", "report_md"}
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    assert paths["trace_jsonl"].name == "run.trace.jsonl"
    assert paths["prometheus"].name == "run.prom"
    assert paths["report_md"].name == "run.report.md"


def test_write_run_artifacts_report_only(tmp_path):
    paths = write_run_artifacts(tmp_path, "bare", summary={"k": 1.0})
    assert set(paths) == {"report_md"}
    assert "| k | 1 |" in paths["report_md"].read_text()


def test_markdown_report_sections_are_optional():
    report = markdown_report("Title only")
    assert report == "# Title only\n"
    with_summary = markdown_report("T", summary={"a": 1.5})
    assert "Full metric summary" in with_summary
    assert "Stage timings" not in with_summary


@pytest.mark.parametrize(
    ("dotted", "expected"),
    [
        ("dispatch.batch_seconds", "dispatch_batch_seconds"),
        ("9lives", "_9lives"),
        ("a-b c", "a_b_c"),
    ],
)
def test_prometheus_name_sanitisation(dotted, expected):
    from repro.observability.export import _prom_name

    assert _prom_name(dotted) == expected
