"""Benchmark of the resilience layer under injected faults.

Runs the ``stadium_surge`` and ``bridge_closure`` scenario presets on the
``ch`` routing backend (``hub_label`` is the same backend under another
name) under both refresh policies with the ``flaky_oracle`` / ``oracle_meltdown`` chaos
presets, and reports what the resilience machinery did: faults injected,
refresh retries, breaker trips, batches run on the degraded dispatcher,
invariant-probe failures with their self-healing rebuilds, and the recovery
latency (wall-clock spent inside failure handling).  A row is its cells
followed by ``MetricsCollector`` fields under their ``METRICS`` names
(times in seconds).

Every cell goes through the harness front door
(:func:`repro.experiments.harness.run` with specs that set ``chaos=`` -- one
code path for experiments, this benchmark and CI).  In every run each
dispatch prices on an oracle the resilience manager's probe had just checked
against a fresh Dijkstra over the mutated network (healing it on a mismatch),
so a row in the table is a run that completed under its fault sequence on
checked oracles; ``test_every_dispatch_runs_on_a_checked_oracle`` in
``tests/test_resilience.py`` pins that no dispatch sees a corrupted oracle.

Run directly (``python benchmarks/bench_chaos.py``) for the full table,
``--smoke`` for the short CI grid (with a markdown copy for the CI job
summary), or through pytest like the other benchmark modules (which writes
the smoke grid under the test's ``tmp_path``, not over the committed copy).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.harness import RunSpec, deterministic_summary, metric_row, run
from repro.simulation.metrics import MetricsCollector

from _common import RESULTS_DIR, save_grid

BACKENDS = ("ch",)
POLICIES = ("coalesce", "repair")
SCENARIOS = ("stadium_surge", "bridge_closure")
CHAOS = ("flaky_oracle", "oracle_meltdown")
#: Workload scale of the full benchmark (the smoke run shrinks it further).
SCALE = 0.08
CITY_SCALE = 0.4
ALGORITHM = "pruneGDP"

#: A row's ``MetricsCollector`` fields: field -> (printed label, value format).
FIELDS: dict[str, tuple[str, str]] = {
    "scenario_events": ("events", "d"),
    "faults_injected": ("faults", "d"),
    "oracle_retries": ("retries", "d"),
    "breaker_trips": ("trips", "d"),
    "degraded_batches": ("degraded", "d"),
    "batch_overruns": ("overrun", "d"),
    "probe_failures": ("probe fail", "d"),
    "self_heals": ("heals", "d"),
    "recovery_seconds": ("recovery s", ".4f"),
    "oracle_rebuilds": ("rebuilds", "d"),
    "oracle_fallback_queries": ("fallback q", "d"),
    "service_rate": ("svc rate", ".3f"),
    "unified_cost": ("unified", ".0f"),
}
#: Grid columns: the cells, then :data:`FIELDS`.
COLUMNS: dict[str, tuple[str, str]] = {
    "chaos": ("chaos", "s"),
    "scenario": ("scenario", "s"),
    "backend": ("backend", "s"),
    "policy": ("policy", "s"),
    **FIELDS,
}
VERIFY_NOTE = (
    "Every dispatch ran on an oracle the pre-dispatch probe had just checked "
    "against fresh Dijkstra over the mutated network; a row in this table "
    "implies the run completed under its injected fault sequence "
    "(tests/test_resilience.py::test_every_dispatch_runs_on_a_checked_oracle "
    "pins that no dispatch sees a corrupted oracle)."
)


def _case(scenario: str, backend: str, policy: str, **kwargs) -> MetricsCollector:
    spec = RunSpec(scenario=scenario, backend=backend, refresh_policy=policy, **kwargs)
    return run(spec).simulation.metrics


def _grid(chaos_names, *, scale: float) -> list[dict]:
    return [
        metric_row(
            FIELDS,
            _case(
                scenario, backend, policy, chaos=chaos,
                scale=scale, city_scale=CITY_SCALE, algorithm=ALGORITHM,
            ),
            chaos=chaos, scenario=scenario, backend=backend, policy=policy,
        )
        for chaos in chaos_names
        for scenario in SCENARIOS
        for backend in BACKENDS
        for policy in POLICIES
    ]


def full_rows() -> list[dict]:
    return _grid(CHAOS, scale=SCALE)


def smoke_rows() -> list[dict]:
    """The CI grid: ``flaky_oracle`` under both policies."""
    return _grid(("flaky_oracle",), scale=0.04)


def _save_grid(rows: list[dict], name: str, title: str, directory: Path = RESULTS_DIR) -> None:
    save_grid(name, rows, COLUMNS, title=title, note=VERIFY_NOTE, directory=directory)


# ---------------------------------------------------------------------- #
# pytest entry points (mirroring the other benchmark modules)
# ---------------------------------------------------------------------- #
def test_chaos_smoke_grid(tmp_path):
    """The CI gate: every cell survives its fault sequence, each dispatch on
    an oracle the probe had just checked (pinned by
    ``test_every_dispatch_runs_on_a_checked_oracle``), and the chaos layer
    actually injected faults."""
    rows = smoke_rows()
    for row in rows:
        assert row["scenario_events"] > 0, row
        assert row["faults_injected"] > 0, row
    _save_grid(
        rows, "chaos_smoke",
        "Chaos smoke grid (flaky_oracle, policy x scenario, probe-checked oracle)", tmp_path,
    )


def test_meltdown_engages_the_full_ladder():
    """Under ``oracle_meltdown`` every refresh policy must exercise the whole
    degradation ladder on stadium_surge: breaker trips, degraded-dispatcher
    batches and probe-triggered self-heals all nonzero."""
    for policy in POLICIES:
        metrics = _case(
            "stadium_surge", "ch", policy,
            chaos="oracle_meltdown", scale=0.05, city_scale=0.35,
        )
        assert metrics.breaker_trips > 0, policy
        assert metrics.degraded_batches > 0, policy
        assert metrics.self_heals > 0, policy
        assert metrics.recovery_seconds > 0.0, policy


def test_chaos_runs_are_reproducible():
    """Same seed, same fault sequence, same non-timing metrics."""
    kwargs = dict(chaos="flaky_oracle", scale=0.05, city_scale=0.35)
    first = _case("stadium_surge", "ch", "coalesce", **kwargs)
    second = _case("stadium_surge", "ch", "coalesce", **kwargs)
    assert deterministic_summary(first) == deterministic_summary(second)


def test_degraded_batches_cost_less_dispatch_time():
    """The degradation trade: under meltdown spikes the degraded dispatcher
    keeps serving (service rate stays positive) while the overrun accounting
    shows the budget pressure that tripped it."""
    metrics = _case(
        "stadium_surge", "ch", "coalesce",
        chaos="oracle_meltdown", scale=0.05, city_scale=0.35,
    )
    assert metrics.batch_overruns >= metrics.breaker_trips // 2
    assert metrics.degraded_batches > 0
    assert metrics.service_rate > 0.5


def main() -> None:
    if "--smoke" in sys.argv:
        _save_grid(
            smoke_rows(), "chaos_smoke",
            "Chaos smoke grid (flaky_oracle, policy x scenario, probe-checked oracle)",
        )
        return
    _save_grid(
        full_rows(), "chaos",
        (
            "Resilience under fault injection: recovery overhead per chaos "
            f"preset and refresh policy (NYC scale {CITY_SCALE}, {ALGORITHM}, "
            f"request scale {SCALE})"
        ),
    )


if __name__ == "__main__":
    main()
