"""End-to-end observability for the dispatch pipeline.

Three pieces (see DESIGN.md "Observability"):

* :mod:`.trace` -- nested span tracer with virtual sim-time, a bounded
  ring buffer, and a zero-allocation null tracer when disabled.
* :mod:`.instrument` -- the front door: ``with tracing(oracle=...) as t:``
  activates every instrumented site in the pipeline for the block.
* :mod:`.export` -- JSONL trace, Prometheus text exposition, and a
  markdown run report, rendered straight from a metrics table's rows and
  raw latency samples; :func:`write_run_artifacts` bundles all three.
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
    tracing,
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
    "NOOP_SPAN",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
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
