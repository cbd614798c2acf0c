"""Machine-readable exporters: JSONL traces, Prometheus text, markdown report.

Three formats, three audiences:

* **JSONL** (one span object per line) -- for trace tooling and ad-hoc
  ``jq``; append-friendly and streamable, unlike a single JSON array.
* **Prometheus text exposition** -- for scraping a long-lived dispatch
  service; rendered from the named ``(MetricSpec, value)`` rows of a
  metrics table plus raw latency samples, so a new table row shows up
  without exporter changes.
* **Markdown run report** -- for humans and CI job summaries: headline
  metrics, per-stage span aggregates, exact latency percentiles.

All three are pure functions of their inputs (deterministic given a
deterministic tracer clock), which is what makes golden-file testing
possible.  :func:`write_run_artifacts` bundles them for the harness and
bench scripts.
"""

from __future__ import annotations

import bisect
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING

from .trace import SpanRecord

if TYPE_CHECKING:
    from ..simulation.metrics import MetricSpec
    from .trace import Tracer

#: Schema version stamped on every exported span line so downstream
#: consumers can detect format changes.
TRACE_SCHEMA_VERSION = 1

#: Histogram bounds for pipeline latencies, in seconds.  Spread log-ish
#: from 50us to 30s so both a single oracle query and a full rebuild land
#: in an interior bucket.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.00005, 0.0002, 0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0,
)

#: ``(row, value)`` pairs of a metrics table over a store (``export_rows``).
MetricRows = Iterable[tuple["MetricSpec", float]]
#: ``{dotted name: (help, raw samples in seconds)}``.
Latencies = Mapping[str, tuple[str, Sequence[float]]]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of pre-sorted raw samples."""
    if not sorted_values:
        return 0.0
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


# --------------------------------------------------------------------- #
# JSONL trace export
# --------------------------------------------------------------------- #
def span_to_dict(record: SpanRecord) -> dict[str, object]:
    """One span as a JSON-ready dict (stable key order)."""
    return {
        "v": TRACE_SCHEMA_VERSION,
        "span_id": record.span_id,
        "parent_id": record.parent_id,
        "name": record.name,
        "depth": record.depth,
        "sim_time": record.sim_time,
        "start_s": round(record.start, 9),
        "duration_s": round(record.duration, 9),
        "tags": record.tags,
    }


def spans_to_jsonl(records: Iterable[SpanRecord]) -> str:
    """Render spans as JSON Lines (completion order, one object per line)."""
    lines = [json.dumps(span_to_dict(record), sort_keys=False) for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
def _prom_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    sanitised = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(rows: MetricRows, latencies: Latencies | None = None) -> str:
    """Render metric rows and latency samples as Prometheus text (v0.0.4).

    Families come in sorted-name order, each named ``repro_<dotted name with
    dots as underscores>``.  A row is one ``counter`` / ``gauge`` series; a
    latency family is a ``histogram`` whose ``_bucket{le=...}`` counts are
    taken against :data:`LATENCY_BUCKETS_S` here, at render time (a sample
    equal to a bound counts in that bound's bucket).
    """
    families: dict[str, tuple[str, str, list[tuple[str, str]]]] = {}
    for spec, value in rows:
        families[str(spec.name)] = (spec.help, spec.kind, [("", _prom_value(value))])
    for dotted, (help_text, samples) in (latencies or {}).items():
        counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
        for sample in samples:
            counts[bisect.bisect_left(LATENCY_BUCKETS_S, sample)] += 1
        bounds = (*LATENCY_BUCKETS_S, float("inf"))
        series = [
            (f'_bucket{{le="{_prom_value(bound)}"}}', str(cumulative))
            for bound, cumulative in zip(bounds, accumulate(counts))
        ]
        series += [("_sum", _prom_value(sum(samples))), ("_count", str(len(samples)))]
        families[dotted] = (help_text, "histogram", series)
    out: list[str] = []
    for dotted, (help_text, kind, series) in sorted(families.items()):
        name = f"repro_{_prom_name(dotted)}"
        if help_text:
            out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {kind}")
        out += [f"{name}{suffix} {value}" for suffix, value in series]
    return "\n".join(out) + ("\n" if out else "")


# --------------------------------------------------------------------- #
# Markdown run report
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpanAggregate:
    """Per-span-name rollup used by the markdown report."""

    name: str
    count: int
    total_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate_spans(records: Iterable[SpanRecord]) -> list[SpanAggregate]:
    """Roll spans up by name, ordered by descending total duration."""
    totals: dict[str, list[float]] = {}
    for record in records:
        bucket = totals.setdefault(record.name, [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += record.duration
        if record.duration > bucket[2]:
            bucket[2] = record.duration
    aggregates = [
        SpanAggregate(name=name, count=int(count), total_s=total, max_s=peak)
        for name, (count, total, peak) in totals.items()
    ]
    aggregates.sort(key=lambda agg: (-agg.total_s, agg.name))
    return aggregates


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def _fmt_summary_value(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def markdown_report(
    title: str,
    *,
    summary: Mapping[str, object] | None = None,
    tracer: Tracer | None = None,
    latencies: Latencies | None = None,
    highlight_keys: Iterable[str] = (),
) -> str:
    """Human-facing run report (also rendered into CI job summaries).

    Sections are emitted only for the inputs provided, so the same function
    serves a metrics-only bench run and a fully traced harness run.
    ``highlight_keys`` pulls selected summary keys into a headline table;
    the full summary follows in a collapsible block.
    """
    lines: list[str] = [f"# {title}", ""]

    if summary:
        highlights = [key for key in highlight_keys if key in summary]
        if highlights:
            lines += ["| metric | value |", "| --- | --- |"]
            lines += [f"| {key} | {_fmt_summary_value(summary[key])} |" for key in highlights]
            lines.append("")
        lines += ["<details><summary>Full metric summary</summary>", ""]
        lines += ["| key | value |", "| --- | --- |"]
        lines += [
            f"| {key} | {_fmt_summary_value(value)} |" for key, value in sorted(summary.items())
        ]
        lines += ["", "</details>", ""]

    if tracer is not None and tracer.records:
        lines += [
            "## Stage timings",
            "",
            "| span | count | total | mean | max |",
            "| --- | --- | --- | --- | --- |",
        ]
        for agg in aggregate_spans(tracer.records):
            lines.append(
                f"| {agg.name} | {agg.count} | {_fmt_seconds(agg.total_s)}"
                f" | {_fmt_seconds(agg.mean_s)} | {_fmt_seconds(agg.max_s)} |"
            )
        lines.append("")
        if tracer.evicted:
            lines += [f"_{tracer.evicted} oldest spans evicted from the ring buffer._", ""]

    if latencies:
        lines += [
            "## Latency distributions",
            "",
            "| distribution | count | mean | p50 | p95 | max |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for dotted, (_, samples) in sorted(latencies.items()):
            ordered = sorted(samples)
            mean = sum(ordered) / len(ordered) if ordered else 0.0
            cells = (
                mean, percentile(ordered, 50.0), percentile(ordered, 95.0), max(ordered, default=0.0)
            )
            lines.append(f"| {dotted} | {len(ordered)} | {' | '.join(map(_fmt_seconds, cells))} |")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


# --------------------------------------------------------------------- #
# Bundled artifact writer
# --------------------------------------------------------------------- #
def write_run_artifacts(
    out_dir: str | Path,
    name: str,
    *,
    title: str | None = None,
    summary: Mapping[str, object] | None = None,
    tracer: Tracer | None = None,
    rows: MetricRows | None = None,
    latencies: Latencies | None = None,
    highlight_keys: Iterable[str] = (),
) -> dict[str, Path]:
    """Write the three export formats for one run; returns ``{format: path}``.

    Emits ``<name>.trace.jsonl`` (when a tracer is given), ``<name>.prom``
    (when metric rows are given), and always ``<name>.report.md``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    if tracer is not None:
        trace_path = out / f"{name}.trace.jsonl"
        trace_path.write_text(spans_to_jsonl(tracer.records), encoding="utf-8")
        written["trace_jsonl"] = trace_path

    if rows is not None:
        prom_path = out / f"{name}.prom"
        prom_path.write_text(prometheus_text(rows, latencies), encoding="utf-8")
        written["prometheus"] = prom_path

    report_path = out / f"{name}.report.md"
    report_path.write_text(
        markdown_report(
            title or name,
            summary=summary,
            tracer=tracer,
            latencies=latencies,
            highlight_keys=highlight_keys,
        ),
        encoding="utf-8",
    )
    written["report_md"] = report_path
    return written


__all__ = [
    "LATENCY_BUCKETS_S",
    "TRACE_SCHEMA_VERSION",
    "SpanAggregate",
    "aggregate_spans",
    "markdown_report",
    "percentile",
    "prometheus_text",
    "span_to_dict",
    "spans_to_jsonl",
    "write_run_artifacts",
]
