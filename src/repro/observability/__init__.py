"""End-to-end observability for the dispatch pipeline.

Four pieces (see DESIGN.md "Observability"):

* :mod:`.trace` -- nested span tracer with virtual sim-time, a bounded
  ring buffer, and a zero-allocation null tracer when disabled.
* :mod:`.registry` -- typed metric registry (Counter / Gauge / Histogram
  with fixed buckets), the export shape that
  :class:`repro.simulation.MetricsCollector` and the dispatch service fill
  from their metrics tables.
* :mod:`.instrument` -- the front door: ``with tracing(oracle=...) as t:``
  activates every instrumented site in the pipeline for the block.
* :mod:`.export` -- JSONL trace, Prometheus text exposition, and a
  markdown run report; :func:`write_run_artifacts` bundles all three.
"""

from .export import (
    TRACE_SCHEMA_VERSION,
    SpanAggregate,
    aggregate_spans,
    markdown_report,
    prometheus_text,
    span_to_dict,
    spans_to_jsonl,
    write_run_artifacts,
)
from .instrument import (
    DEFAULT_ORACLE_SAMPLE_EVERY,
    tracing,
)
from .registry import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricRegistry,
)
from .trace import (
    DEFAULT_CAPACITY,
    NOOP_SPAN,
    NULL_TRACER,
    NoopSpan,
    NullTracer,
    SpanRecord,
    SpanTracer,
    TagValue,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_ORACLE_SAMPLE_EVERY",
    "LATENCY_BUCKETS_S",
    "NOOP_SPAN",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricRegistry",
    "NoopSpan",
    "NullTracer",
    "SpanAggregate",
    "SpanRecord",
    "SpanTracer",
    "TagValue",
    "Tracer",
    "aggregate_spans",
    "get_tracer",
    "markdown_report",
    "prometheus_text",
    "set_tracer",
    "span_to_dict",
    "spans_to_jsonl",
    "tracing",
    "use_tracer",
    "write_run_artifacts",
]
