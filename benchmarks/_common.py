"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark module regenerates one artefact of the paper's evaluation at
laptop scale: it runs the corresponding experiment through
:mod:`repro.experiments.figures`, times it with ``pytest-benchmark`` and
writes the resulting rows (the same columns the paper plots) to stdout, to
``benchmarks/results/<name>.txt`` / ``.md`` and, for a figure, to the
``.json`` twin that tooling parses.  A row of any grid here -- figure,
ablation, scenario or chaos -- is a dict of cell coordinates followed by
``MetricsCollector`` fields under their ``METRICS`` names
(:func:`repro.experiments.harness.metric_row`), times in seconds, and
:func:`save_grid` renders it.

Absolute values are not comparable to the paper (Python simulator, synthetic
workloads, compressed time scale); the *shape* -- which algorithm wins, how
the curves move with each parameter -- is what the benchmarks reproduce.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.figures import FIGURES, InstanceScale

#: Output directory for the regenerated tables.
RESULTS_DIR = Path(__file__).parent / "results"

#: Reduced line-up for the heaviest sweeps.
CORE_ALGORITHMS = ("pruneGDP", "RTV", "GAS", "SARD")

#: Laptop-scale instance of every figure and table benchmark: the paper's
#: 100K requests -> 80, 3K vehicles -> 60.  ``hub_label`` reproduces the
#: paper's oracle (and is the fastest; see bench_oracle_backends.py).
BENCH_SCALE = InstanceScale(
    request_fraction=0.0008,
    vehicle_fraction=0.02,
    city_scale=0.35,
    routing_backend="hub_label",
)


#: The metric columns of a figure or ablation row (see :func:`format_grid`).
METRIC_COLUMNS = {
    "unified_cost": ("unified_cost", ".1f"),
    "service_rate": ("service_rate", ".3f"),
    "dispatch_seconds": ("time (s)", ".3f"),
    "shortest_path_queries": ("#SP queries", "d"),
    "peak_memory_bytes": ("memory (B)", "d"),
    "assigned_requests": ("assigned", "d"),
    "total_requests": ("requests", "d"),
}
#: The note under every figure and ablation grid.
METRIC_NOTE = (
    "time (s) is the wall clock inside the dispatcher; every other column "
    "repeats exactly on a same-seed run."
)


def save_figure(name: str, key: str, rows: list[dict]) -> None:
    """Persist the rows of ``figures.figure(key)`` as ``<name>.txt`` /
    ``.md`` grids and the ``<name>.json`` twin."""
    spec = FIGURES[key]
    title = f"{spec.label} -- parameter: {spec.parameter}"
    columns = {
        "dataset": ("dataset", "s"),
        "algorithm": ("algorithm", "s"),
        "value": (spec.parameter, "g"),
        **METRIC_COLUMNS,
    }
    save_grid(name, rows, columns, title=title, note=METRIC_NOTE)
    save_json(name, {"benchmark": name, "title": title, "rows": rows})


def series(rows: list[dict], metric: str) -> dict[str, dict[str, list[tuple]]]:
    """Per-dataset, per-algorithm ``(value, metric)`` series of figure rows,
    in ascending value, as the paper plots them."""
    result: dict[str, dict[str, list[tuple]]] = {}
    for row in sorted(rows, key=lambda row: row["value"]):
        lines = result.setdefault(row["dataset"], {})
        lines.setdefault(row["algorithm"], []).append((row["value"], row[metric]))
    return result


def save_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result next to the text table.

    The JSON twin is what tooling should parse (``bench_oracle_backends.py``
    compares its counts with the committed one); the ``.txt`` table remains
    the human copy.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def save_text(name: str, text: str) -> str:
    """Persist free-form text output (used by the ablation tables)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)
    return text


def format_grid(
    rows: list[dict],
    columns: dict[str, tuple[str, str]],
    *,
    title: str,
    note: str,
    markdown: bool = False,
) -> str:
    """Render a grid's row dicts as a fixed-width text table, or as a
    GitHub-flavoured markdown table (CI job summary).

    ``columns`` maps row key -> (printed label, value format); ``"s"``
    columns are left-justified, numeric ones right-justified.
    """
    labels = [label for label, _ in columns.values()]
    table = [labels] + [
        [
            str(row[key]) if fmt == "s" else f"{row[key]:{fmt}}"
            for key, (_, fmt) in columns.items()
        ]
        for row in rows
    ]
    if markdown:
        header, *body = ("| " + " | ".join(line) + " |" for line in table)
        rule = "|" + "|".join("---" for _ in labels) + "|"
        lines = [f"### {title}", "", header, rule, *body]
    else:
        widths = [max(len(line[i]) for line in table) for i in range(len(labels))]
        justify = [
            str.ljust if fmt == "s" else str.rjust for _, fmt in columns.values()
        ]
        lines = [title] + [
            " ".join(
                pad(cell, width) for pad, cell, width in zip(justify, line, widths)
            ).rstrip()
            for line in table
        ]
    return "\n".join([*lines, "", note])


def save_grid(
    name: str,
    rows: list[dict],
    columns: dict[str, tuple[str, str]],
    *,
    title: str,
    note: str,
) -> None:
    """Persist a grid as ``<name>.txt`` (also printed) and ``<name>.md``."""
    save_text(name, format_grid(rows, columns, title=title, note=note))
    (RESULTS_DIR / f"{name}.md").write_text(
        format_grid(rows, columns, title=title, note=note, markdown=True) + "\n"
    )
