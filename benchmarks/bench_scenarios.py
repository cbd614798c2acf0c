"""Benchmark of the dynamic-world scenario engine and oracle refresh policies.

Runs the ``bridge_closure`` and ``rush_hour`` scenario presets on the ``ch``
routing backend (``hub_label`` is the same backend under another name)
under both refresh policies -- ``coalesce`` | ``repair`` -- and reports the
refresh overhead per policy: backend rebuilds and their wall-clock cost,
repairs (snapshot swaps) and theirs, queries served by the exact Dijkstra
fallback while the structures were dirty, and the stale-window time.  A
row is its cells followed by ``MetricsCollector`` fields under their
``METRICS`` names (times in seconds).

Every cell goes through the harness front door
(:func:`repro.experiments.harness.run` with specs that set ``scenario=``
-- one code path for experiments, this benchmark and CI); every run here
sets ``parity_pairs=``, the harness parity probe: *after every world event
burst* the scenario oracle is checked against a fresh Dijkstra over the
mutated network and every returned path is checked to avoid closed edges.

Run directly (``python benchmarks/bench_scenarios.py``) for the full table,
``--smoke`` for the short CI grid (both scenarios x both policies at a
smaller scale, with a markdown copy for the CI job summary),
``--trace`` for one traced run that writes the observability artifacts
(JSONL span trace, Prometheus snapshot, markdown report) into the results
directory, or through pytest like the other benchmarks (which writes the
smoke grid under the test's ``tmp_path``, not over the committed copy).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.harness import RunSpec, metric_row, run
from repro.simulation.metrics import MetricsCollector

from _common import RESULTS_DIR, save_grid, save_json

BACKENDS = ("ch",)
POLICIES = ("coalesce", "repair")
SCENARIOS = ("bridge_closure", "rush_hour")
#: Workload scale of the full benchmark (the smoke run shrinks it further).
SCALE = 0.08
CITY_SCALE = 0.4
ALGORITHM = "SARD"
#: Random pairs checked for parity after every event burst.
PARITY_PAIRS = 20

#: A row's ``MetricsCollector`` fields: field -> (printed label, value format).
FIELDS: dict[str, tuple[str, str]] = {
    "scenario_events": ("events", "d"),
    "oracle_rebuilds": ("rebuilds", "d"),
    "oracle_rebuild_seconds": ("rebuild s", ".4f"),
    "oracle_repairs": ("repairs", "d"),
    "oracle_repair_seconds": ("repair s", ".4f"),
    "oracle_fallback_queries": ("fallback q", "d"),
    "oracle_stale_seconds": ("stale s", ".4f"),
    "service_rate": ("svc rate", ".3f"),
    "unified_cost": ("unified", ".0f"),
}
#: Grid columns: the cells, then :data:`FIELDS`.
COLUMNS: dict[str, tuple[str, str]] = {
    "scenario": ("scenario", "s"),
    "backend": ("backend", "s"),
    "policy": ("policy", "s"),
    **FIELDS,
}
PARITY_NOTE = (
    "Parity checked after every event burst: scenario oracle == fresh "
    "Dijkstra on the mutated network; all returned paths avoid closed edges."
)


def _case(scenario: str, backend: str, policy: str, **kwargs) -> MetricsCollector:
    spec = RunSpec(scenario=scenario, backend=backend, refresh_policy=policy, **kwargs)
    return run(spec).simulation.metrics


def _grid_rows(**common) -> list[dict]:
    return [
        metric_row(
            FIELDS, _case(scenario, backend, policy, **common),
            scenario=scenario, backend=backend, policy=policy,
        )
        for scenario in SCENARIOS
        for backend in BACKENDS
        for policy in POLICIES
    ]


def full_rows() -> list[dict]:
    return _grid_rows(
        scale=SCALE, city_scale=CITY_SCALE,
        algorithm=ALGORITHM, parity_pairs=PARITY_PAIRS,
    )


def smoke_rows() -> list[dict]:
    """The CI grid: both scenarios x both policies."""
    return _grid_rows(
        scale=0.04, city_scale=CITY_SCALE,
        algorithm="pruneGDP", parity_pairs=12,
    )


def _save_grid(rows: list[dict], name: str, title: str, directory: Path = RESULTS_DIR) -> None:
    save_grid(name, rows, COLUMNS, title=title, note=PARITY_NOTE, directory=directory)
    save_json(name, {"benchmark": name, "title": title, "rows": rows}, directory)


# ---------------------------------------------------------------------- #
# pytest entry points (mirroring the other benchmark modules)
# ---------------------------------------------------------------------- #
def test_scenario_refresh_overhead_smoke(tmp_path):
    rows = smoke_rows()
    for row in rows:
        assert row["scenario_events"] > 0
        assert row["oracle_rebuilds"] + row["oracle_repairs"] >= 1
    _save_grid(
        rows, "scenarios_smoke",
        "Scenario smoke grid (policy x scenario, parity-gated)", tmp_path,
    )


def test_policies_trade_rebuilds_for_fallback():
    """Coalesce must actually serve fallback queries where repair never
    does, on the same bridge_closure scenario."""
    repair = _case("bridge_closure", "ch", "repair", scale=0.05)
    coalesce = _case("bridge_closure", "ch", "coalesce", scale=0.05)
    assert repair.oracle_fallback_queries == 0
    assert coalesce.oracle_fallback_queries > 0
    assert coalesce.oracle_stale_seconds > 0.0


def test_repair_absorbs_every_burst_with_fewer_full_builds():
    """The acceptance gate of the repair policy: on both presets, at city
    scale, repair absorbs every burst exactly (the parity probe runs in both
    cells) with fewer from-scratch rebuilds than coalesce's rebuild per
    quiet boundary.  Counts, not wall time: the refresh times are a few ms
    each and their order flips on a busy host.  A rebuild that adopts a held
    state (coalesce's last ``rush_hour`` rebuild returns to the set-up
    network) still counts in ``oracle_rebuilds``: the count records refresh
    decisions, ``oracle_rebuild_seconds`` what they cost."""
    for scenario in SCENARIOS:
        coalesce = _case(
            scenario, "ch", "coalesce",
            scale=SCALE, city_scale=CITY_SCALE, parity_pairs=PARITY_PAIRS,
        )
        repair = _case(
            scenario, "ch", "repair",
            scale=SCALE, city_scale=CITY_SCALE, parity_pairs=PARITY_PAIRS,
        )
        assert repair.oracle_repairs >= 1, scenario
        assert repair.oracle_rebuilds < coalesce.oracle_rebuilds, scenario


def main() -> None:
    if "--trace" in sys.argv:
        # Observability artifacts for the CI job: one traced SARD run whose
        # span trace, Prometheus snapshot and markdown report land next to
        # the benchmark tables (uploaded as CI artifacts / job summary).
        outcome = run(RunSpec(
            out_dir=RESULTS_DIR, name="traced_run", num_requests=80, num_vehicles=12,
        ))
        assert outcome.artifacts is not None
        for kind, path in sorted(outcome.artifacts.items()):
            print(f"{kind}: {path}")
        return
    if "--smoke" in sys.argv:
        _save_grid(
            smoke_rows(), "scenarios_smoke",
            "Scenario smoke grid (policy x scenario, parity-gated)",
        )
        return
    _save_grid(
        full_rows(), "scenarios",
        (
            "Dynamic-world scenario engine: oracle refresh overhead per "
            f"policy (NYC scale {CITY_SCALE}, {ALGORITHM}, "
            f"request scale {SCALE})"
        ),
    )


if __name__ == "__main__":
    main()
