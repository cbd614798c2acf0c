"""Benchmark-regression comparison for the oracle-backend microbenchmark.

The CI pipeline regenerates ``benchmarks/results/oracle_backends.txt`` on
every run, but a table that is merely *regenerated* guards nothing: a 2x
slowdown in the ``ch`` query loop would merge green.  This module turns the
table into a gate: :func:`parse_backend_table` extracts the per-backend
``us/query`` column from the benchmark's text output,
:func:`compare_backend_tables` diffs a fresh run against a baseline (the
previous CI run's artifact, or the committed table) and flags any backend
whose per-query time regressed beyond a threshold, and
:func:`format_markdown` renders the before/after table for the CI job
summary.

Comparing absolute microseconds only makes sense on comparable hardware
(artifact baseline from the same runner class).  Against the *committed*
baseline -- timed on a developer machine -- pass ``normalize`` (usually
``"dijkstra"``): every backend's time is divided by the reference backend's
time from the same table, so uniform machine-speed differences cancel and
only *relative* backend regressions trip the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ConfigurationError

#: Default failure threshold: a backend may not get more than 30% slower.
DEFAULT_THRESHOLD = 0.30


def parse_backend_table(text: str) -> dict[str, float]:
    """Extract ``backend -> us/query`` from an ``oracle_backends.txt`` table.

    The parser is deliberately narrow: it accepts exactly the row shape the
    benchmark emits (a known-looking backend identifier followed by numeric
    columns, ``us/query`` second) and ignores every other line (title,
    header, history notes), so both artifacts and the committed file parse.
    """
    table: dict[str, float] = {}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) < 3:
            continue
        name = tokens[0]
        if not name.replace("_", "").isalpha() or name == "backend":
            continue
        try:
            query_us = float(tokens[2])
        except ValueError:
            continue
        table[name] = query_us
    if not table:
        raise ConfigurationError("no backend rows found in benchmark table")
    return table


def parse_backend_json(text: str) -> dict[str, float]:
    """Extract ``backend -> us/query`` from an ``oracle_backends.json`` blob.

    Accepts the payload :func:`benchmarks._common.save_json` writes for the
    backend microbenchmark: a top-level ``query_us`` map is preferred; a
    ``rows`` list of ``{"backend": ..., "query_us": ...}`` dicts is the
    fallback so hand-rolled baselines also parse.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid benchmark JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("benchmark JSON must be an object")
    table: dict[str, float] = {}
    query_us = payload.get("query_us")
    if isinstance(query_us, dict):
        for name, value in query_us.items():
            table[str(name)] = float(value)
    else:
        for row in payload.get("rows", ()):
            if isinstance(row, dict) and "backend" in row and "query_us" in row:
                table[str(row["backend"])] = float(row["query_us"])
    if not table:
        raise ConfigurationError("no backend entries found in benchmark JSON")
    return table


def load_backend_table(path: str | Path) -> dict[str, float]:
    """Load a backend table from disk, preferring the JSON twin.

    Given ``oracle_backends.json`` (or any ``.json`` path) the JSON parser
    runs directly.  Given the legacy ``.txt`` path, a sibling ``.json`` with
    the same stem wins when it exists -- so CI keeps passing the text path
    while transparently picking up the machine-readable artifact -- and the
    text parser remains the fallback for old baselines.
    """
    path = Path(path)
    if path.suffix == ".json":
        return parse_backend_json(path.read_text())
    sibling = path.with_suffix(".json")
    if sibling.exists():
        return parse_backend_json(sibling.read_text())
    return parse_backend_table(path.read_text())


@dataclass(frozen=True)
class BackendDelta:
    """Before/after comparison of one backend's per-query time."""

    backend: str
    baseline_us: float
    fresh_us: float
    #: Relative change of the (possibly normalised) metric: 0.30 = 30% slower.
    delta: float
    regressed: bool


def compare_backend_tables(
    baseline: dict[str, float],
    fresh: dict[str, float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    normalize: str | None = None,
) -> list[BackendDelta]:
    """Compare a fresh benchmark table against a baseline.

    A backend regresses when its (normalised) per-query time grew by more
    than ``threshold`` relative to the baseline.  Backends present only in
    the fresh table are new and pass by definition; backends that *vanished*
    from the fresh table fail loudly (a silently dropped benchmark row must
    not disable its gate).
    """
    if threshold <= 0:
        raise ConfigurationError("threshold must be positive")
    base_norm = fresh_norm = 1.0
    if normalize is not None:
        try:
            base_norm = baseline[normalize]
            fresh_norm = fresh[normalize]
        except KeyError as exc:
            raise ConfigurationError(
                f"normalisation backend {normalize!r} missing from a table"
            ) from exc
        if base_norm <= 0 or fresh_norm <= 0:
            raise ConfigurationError("normalisation reference must be positive")
    deltas: list[BackendDelta] = []
    for backend, base_us in baseline.items():
        if backend not in fresh:
            deltas.append(BackendDelta(backend, base_us, float("nan"), float("inf"), True))
            continue
        fresh_us = fresh[backend]
        base_metric = base_us / base_norm
        fresh_metric = fresh_us / fresh_norm
        delta = (fresh_metric - base_metric) / base_metric if base_metric > 0 else 0.0
        deltas.append(
            BackendDelta(backend, base_us, fresh_us, delta, delta > threshold)
        )
    return deltas


def format_markdown(
    deltas: list[BackendDelta],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    normalize: str | None = None,
) -> str:
    """Render the before/after table for the CI job summary."""
    mode = (
        f"us/query normalised by `{normalize}` (cross-machine baseline)"
        if normalize
        else "absolute us/query (same-runner baseline)"
    )
    lines = [
        "### Oracle-backend benchmark regression gate",
        "",
        f"Metric: {mode}; failure threshold: +{threshold:.0%}.",
        "",
        "| backend | baseline us/query | fresh us/query | delta | status |",
        "|---|---|---|---|---|",
    ]
    for d in sorted(deltas, key=lambda d: d.backend):
        fresh_cell = "missing" if d.fresh_us != d.fresh_us else f"{d.fresh_us:.1f}"
        delta_cell = "n/a" if d.delta == float("inf") else f"{d.delta:+.1%}"
        status = "**REGRESSED**" if d.regressed else "ok"
        lines.append(
            f"| {d.backend} | {d.baseline_us:.1f} | {fresh_cell} | "
            f"{delta_cell} | {status} |"
        )
    regressed = [d.backend for d in deltas if d.regressed]
    lines.append("")
    if regressed:
        lines.append(
            f"Gate **failed**: {', '.join(sorted(regressed))} regressed by "
            f"more than {threshold:.0%}."
        )
    else:
        lines.append("Gate passed: no backend regressed beyond the threshold.")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_THRESHOLD",
    "BackendDelta",
    "parse_backend_table",
    "parse_backend_json",
    "load_backend_table",
    "compare_backend_tables",
    "format_markdown",
]
