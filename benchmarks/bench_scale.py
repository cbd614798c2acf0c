"""Scale ladder: SARD through ``DispatchService`` from 2% of the paper's
instance up to all of it, rung by rung, beside the performance ledger.

    python benchmarks/bench_scale.py          # every rung -> results/scale.{md,json}
    python -m pytest benchmarks/bench_scale.py -q   # smoke rungs == committed scale.json

``f`` is the fraction of the paper's NYC instance (100K requests, 3K
vehicles) a rung generates.  Two axes:

(a) ``f`` in 0.02 ... 1.0 at ``city_scale`` 1 on ``hub_label``, twice:
    *fixed regime* rungs scale the preset's arrival rate with ``f`` (a
    ``workload_overrides`` entry at the call site below), so requests per
    vehicle-hour -- the supply regime -- are the paper instance's on every
    rung; *fixed rate* rungs keep the preset's rate, so the fleet per
    arrival grows with ``f`` and a rung mixes size with regime.  The
    ms-per-request exponent is fitted on the fixed-regime rungs only.
(b) ``city_scale`` 1, 2, 4 at ``f`` = 0.1 (fixed regime), on ``hub_label``
    (``ch`` is the same labels under another name): set-up, mean label size
    and the build exponent.

Every rung runs in its own child process (a fresh peak RSS,
``PYTHONHASHSEED=0``) and gets a 60 s wall budget for build and run
together; a rung over budget is killed and recorded as a miss, never
raised.  Each rung reports build and run seconds, ms per request, peak
RSS, ``service_rate`` and ``unified_cost``, the oracle's counters, the
``sard.*`` stage split from spans, the seconds spent in candidate search
(``repro.dispatch.base.candidate_vehicles``, timed by a wrapper the child
installs the way the ledger's ``LayerProbe`` does, so ``src/`` carries no
extra span) and the events the service streamed:
``EventLog.dropped`` is what an :class:`~repro.simulation.events.EventLog`
would drop of them at its cap.  The smoke rungs (``f <= 0.05``) repeat
exactly, and the pytest entry point compares their exact metrics with the
committed ``scale.json``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from _common import RESULTS_DIR, format_grid, save_json

#: Wall seconds a rung may take, build and run together.
BUDGET_S = 60.0
#: The paper's NYC instance, which ``f`` scales.
PAPER_REQUESTS = 100_000
PAPER_VEHICLES = 3_000
#: Axis (a) fractions; the rungs at or below SMOKE_F run in CI.
FRACTIONS = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
SMOKE_F = 0.05
#: Axis (b): city scales at one fraction.
CITY_SCALES = (1.0, 2.0, 4.0)
CITY_F = 0.1
#: What a smoke rung must repeat exactly.
EXACT = (
    "requests", "vehicles", "assigned", "service_rate", "unified_cost",
    "queries", "searches", "settled_nodes", "events", "eventlog_dropped",
)
#: Stage spans of one SARD batch.
STAGES = ("sard.sync_graph", "sard.build_queues", "sard.rounds", "sard.materialize")


@dataclass(frozen=True)
class Rung:
    """One point of the ladder."""

    axis: str
    f: float
    city_scale: float
    backend: str
    #: True: the arrival rate scales with ``f``; False: the preset's rate.
    fixed_regime: bool

    @property
    def name(self) -> str:
        regime = "regime" if self.fixed_regime else "rate"
        return f"{self.axis}:f={self.f:g}:city={self.city_scale:g}:{self.backend}:{regime}"


def rungs() -> list[Rung]:
    """Every rung, axis (a) then axis (b)."""
    ladder = [
        Rung("a", f, 1.0, "hub_label", fixed_regime)
        for fixed_regime in (True, False)
        for f in FRACTIONS
    ]
    ladder += [Rung("b", CITY_F, city_scale, "hub_label", True) for city_scale in CITY_SCALES]
    return ladder


def smoke_rungs() -> list[Rung]:
    return [rung for rung in rungs() if rung.axis == "a" and rung.f <= SMOKE_F]


# ---------------------------------------------------------------------- #
# the child: one rung
# ---------------------------------------------------------------------- #
def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def time_candidate_search() -> dict[str, float]:
    """Wrap ``candidate_vehicles`` in every loaded ``repro`` module that
    holds it; the returned dict accumulates the wall seconds of its calls."""
    from repro.dispatch import base

    original, seconds = base.candidate_vehicles, {"candidate_s": 0.0}

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds["candidate_s"] += time.perf_counter() - start

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "candidate_vehicles", None) is original:
            module.candidate_vehicles = timed
    return seconds


def run_rung(rung: Rung) -> None:
    """Build and serve one rung, printing a JSON line after each phase."""
    from repro.config import ServiceConfig
    from repro.experiments.harness import RunSpec, run
    from repro.network.routing import routing_data
    from repro.observability import SpanTracer, use_tracer
    from repro.simulation.events import EventLog
    from repro.workloads.presets import WORKLOAD_PRESETS, make_workload

    class StageClock(SpanTracer):
        """Keeps the seconds per span name instead of the spans."""

        def __init__(self) -> None:
            super().__init__(capacity=1)
            self.seconds: dict[str, float] = {}

        def _finish(self, record) -> None:
            self.seconds[record.name] = self.seconds.get(record.name, 0.0) + record.duration

    rate = WORKLOAD_PRESETS["nyc"].workload.arrival_rate
    overrides: dict[str, object] = {
        "num_requests": max(round(PAPER_REQUESTS * rung.f), 1),
        "num_vehicles": max(round(PAPER_VEHICLES * rung.f), 1),
    }
    if rung.fixed_regime:
        overrides["arrival_rate"] = rate * rung.f
    start = time.perf_counter()
    workload = make_workload(
        "nyc",
        city_scale=rung.city_scale,
        workload_overrides=overrides,
        simulation_overrides={"routing_backend": rung.backend},
    )
    data = routing_data(workload.network)
    build_s = time.perf_counter() - start
    labels = [*data.labeling.forward, *data.labeling.backward]
    built = {
        "phase": "built",
        "build_s": build_s,
        "nodes": data.csr.num_nodes,
        "requests": len(workload.requests),
        "vehicles": workload.workload_config.num_vehicles,
        "arrival_rate": workload.workload_config.arrival_rate,
        "label_mean": sum(map(len, labels)) / len(labels),
    }
    _emit(built)
    clock, search = StageClock(), time_candidate_search()
    start = time.perf_counter()
    with use_tracer(clock):
        outcome = run(RunSpec(
            workload=workload, algorithm="SARD", service_config=ServiceConfig()
        ))
    run_s = time.perf_counter() - start
    summary = outcome.simulation.summary()
    service = outcome.service
    events = len(service.events) + service.stats.events_dropped
    _emit({
        "phase": "served",
        "run_s": run_s,
        "ms_per_request": run_s / built["requests"] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "assigned": service.stats.assigned,
        "service_rate": service.service_rate,
        "unified_cost": service.unified_cost,
        "queries": int(summary["shortest_path_queries"]),
        "searches": int(summary["oracle_searches"]),
        "settled_nodes": int(summary["oracle_settled_nodes"]),
        "events": events,
        "eventlog_dropped": max(events - EventLog.MAX_EVENTS, 0),
        "stage_s": {stage: clock.seconds.get(stage, 0.0) for stage in STAGES},
        **search,
        "candidate_share": search["candidate_s"] / run_s,
    })


# ---------------------------------------------------------------------- #
# the parent: the ladder
# ---------------------------------------------------------------------- #
def measure(rung: Rung, budget_s: float = BUDGET_S) -> dict:
    """One rung in a child process; a rung over budget is a miss."""
    command = [sys.executable, str(Path(__file__).resolve()), "--rung", json.dumps(asdict(rung))]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    row: dict = {"rung": rung.name, **asdict(rung)}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=budget_s, env=env, check=False
        )
        output, row["missed"] = done.stdout, False
        if done.returncode != 0:
            raise RuntimeError(f"rung {rung.name} failed:\n{done.stderr}")
    except subprocess.TimeoutExpired as expired:
        output, row["missed"] = expired.stdout or "", True
        if isinstance(output, bytes):
            output = output.decode()
    for line in output.splitlines():
        if line.startswith("{"):
            row.update(json.loads(line))
    row.pop("phase", None)
    row["wall_s"] = time.perf_counter() - start
    return row


def fitted_exponent(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of ``log y`` on ``log x``."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / spread if spread else None


def findings(rows: list[dict]) -> dict:
    """The ladder's headline numbers (finished rungs only)."""
    done = [row for row in rows if not row["missed"]]
    regime = [row for row in done if row["axis"] == "a" and row["fixed_regime"]]
    out: dict = {
        "largest_f_in_budget": {
            label: max(
                (row["f"] for row in done
                 if row["axis"] == "a" and row["fixed_regime"] is fixed),
                default=None,
            )
            for label, fixed in (("fixed_regime", True), ("fixed_rate", False))
        },
        "ms_per_request_exponent_fixed_regime": fitted_exponent(
            [(row["f"], row["ms_per_request"]) for row in regime]
        ),
    }
    out["build_exponent"] = fitted_exponent([
        (row["nodes"], row["build_s"]) for row in rows if row["axis"] == "b" and "build_s" in row
    ])
    return out


COLUMNS = {
    "axis": ("axis", "s"),
    "regime": ("arrivals", "s"),
    "f": ("f", "g"),
    "city_scale": ("city", "g"),
    "backend": ("backend", "s"),
    "nodes_": ("nodes", "s"),
    "requests_": ("requests", "s"),
    "build_": ("build s", "s"),
    "run_": ("run s", "s"),
    "ms_": ("ms/req", "s"),
    "rss_": ("peak MiB", "s"),
    "label_": ("label", "s"),
    "rate_": ("svc rate", "s"),
    "cost_": ("unified", "s"),
    "settled_": ("settled", "s"),
    "stages_": ("sync/queues/rounds/mat s", "s"),
    "candidate_": ("candidate search s (share)", "s"),
    "dropped_": ("EventLog.dropped", "s"),
}


def _cell(row: dict, key: str, fmt: str) -> str:
    return format(row[key], fmt) if key in row else ("miss" if row["missed"] else "-")


def table_rows(rows: list[dict]) -> list[dict]:
    """The grid's printed cells; a miss shows what finished before it."""
    out = []
    for row in rows:
        stages = row.get("stage_s")
        out.append({
            **row,
            "regime": "fixed regime" if row["fixed_regime"] else "fixed rate",
            "nodes_": _cell(row, "nodes", "d"),
            "requests_": _cell(row, "requests", "d"),
            "build_": _cell(row, "build_s", ".2f"),
            "run_": _cell(row, "run_s", ".2f"),
            "ms_": _cell(row, "ms_per_request", ".3f"),
            "rss_": _cell(row, "peak_rss_mb", ".0f"),
            "label_": _cell(row, "label_mean", ".1f"),
            "rate_": _cell(row, "service_rate", ".4f"),
            "cost_": _cell(row, "unified_cost", ".0f"),
            "settled_": _cell(row, "settled_nodes", "d"),
            "stages_": (
                "/".join(f"{stages[stage]:.2f}" for stage in STAGES) if stages else "-"
            ),
            "dropped_": _cell(row, "eventlog_dropped", "d"),
            "candidate_": (
                f"{row['candidate_s']:.2f} ({row['candidate_share']:.0%})"
                if "candidate_s" in row else _cell(row, "candidate_s", "s")
            ),
        })
    return out


def _g(value: float | None) -> str:
    return "-" if value is None else f"{value:.3g}"


def save(rows: list[dict]) -> None:
    summary = findings(rows)
    largest = summary["largest_f_in_budget"]
    host = f"{platform.python_implementation()} {platform.python_version()}, {os.cpu_count()} CPUs"
    note = (
        f"Budget {BUDGET_S:.0f} s wall per rung (build + run); {host}.  "
        "Fixed regime: arrival rate = preset rate x f; fixed rate: the preset's.  "
        f"Largest f in budget: {_g(largest['fixed_regime'])} (fixed regime), "
        f"{_g(largest['fixed_rate'])} (fixed rate).  ms/request ~ f^"
        f"{_g(summary['ms_per_request_exponent_fixed_regime'])} (fixed regime).  "
        f"Build s ~ nodes^{_g(summary['build_exponent'])}.  Stage seconds are "
        "span totals of sard.sync_graph / build_queues / rounds / materialize; "
        "candidate search is the wall time inside candidate_vehicles and its "
        "share of run s."
    )
    text = format_grid(
        table_rows(rows), COLUMNS,
        title="Scale ladder: SARD through DispatchService (NYC, paper instance x f)",
        note=note, markdown=True,
    )
    (RESULTS_DIR / "scale.md").write_text(text + "\n")
    print(text)
    save_json("scale", {
        "benchmark": "scale", "budget_s": BUDGET_S, "host": host,
        "findings": summary, "rows": rows,
    })


def exact(row: dict) -> dict:
    return {key: row.get(key) for key in EXACT}


# ---------------------------------------------------------------------- #
# pytest entry point: the smoke rungs repeat exactly
# ---------------------------------------------------------------------- #
def test_smoke_rungs_match_committed():
    committed = json.loads((RESULTS_DIR / "scale.json").read_text())
    pinned = {row["rung"]: row for row in committed["rows"]}
    for rung in smoke_rungs():
        row = measure(rung)
        assert not row["missed"], rung.name
        assert exact(row) == exact(pinned[rung.name]), rung.name


def main(argv: list[str]) -> None:
    if argv[:1] == ["--rung"]:
        run_rung(Rung(**json.loads(argv[1])))
        return
    rows = []
    for rung in rungs():
        rows.append(measure(rung))
        print(json.dumps({key: rows[-1].get(key) for key in ("rung", "missed", "wall_s")}))
    save(rows)


if __name__ == "__main__":
    main(sys.argv[1:])
