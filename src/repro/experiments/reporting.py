"""Turning sweep results into readable tables and CSV files."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from collections.abc import Iterable, Sequence

from .figures import ResultRow

#: Metrics shown in the default reports (the three panels of every figure).
DEFAULT_METRICS: tuple[str, ...] = ("unified_cost", "service_rate", "running_time")


def format_rows(
    rows: Sequence[ResultRow],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    title: str | None = None,
) -> str:
    """Render result rows as a fixed-width text table (one row per cell)."""
    header = ["dataset", "algorithm", "parameter", "value", *metrics]
    lines: list[list[str]] = [header]
    for row in rows:
        lines.append(
            [
                row.dataset,
                row.algorithm,
                row.parameter,
                _format_number(row.value),
                *[_format_number(row.metric(metric)) for metric in metrics],
            ]
        )
    widths = [max(len(line[col]) for line in lines) for col in range(len(header))]
    rendered = []
    if title:
        rendered.append(title)
    for index, line in enumerate(lines):
        rendered.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)))
        if index == 0:
            rendered.append("  ".join("-" * widths[col] for col in range(len(header))))
    return "\n".join(rendered)


def rows_to_csv(
    rows: Iterable[ResultRow],
    path: str | Path | None = None,
) -> str:
    """Serialise rows to CSV; also writes ``path`` when provided."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "dataset",
            "algorithm",
            "parameter",
            "value",
            "unified_cost",
            "service_rate",
            "running_time",
            "shortest_path_queries",
            "peak_memory_bytes",
            "assigned_requests",
            "total_requests",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row.dataset,
                row.algorithm,
                row.parameter,
                row.value,
                row.unified_cost,
                row.service_rate,
                row.running_time,
                row.shortest_path_queries,
                row.peak_memory_bytes,
                row.assigned_requests,
                row.total_requests,
            ]
        )
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def _format_number(value: float) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 0.01:
            return f"{value:.3e}"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
