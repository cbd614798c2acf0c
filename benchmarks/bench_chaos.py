"""Benchmark of the resilience layer under injected faults.

Runs the ``stadium_surge`` and ``bridge_closure`` scenario presets on the
``ch`` routing backend (``hub_label`` is the same backend under another
name) under both refresh policies with the ``flaky_oracle`` / ``oracle_meltdown`` chaos
presets, and reports what the resilience machinery did: faults injected,
refresh retries, breaker trips, batches run on the degraded dispatcher,
invariant-probe failures with their self-healing rebuilds, and the recovery
latency (wall-clock spent inside failure handling).

Every cell goes through the harness front door
(:func:`repro.experiments.harness.run` with specs that set ``chaos=`` -- one
code path for experiments, this benchmark and CI).  Every run verifies
each accepted assignment's leg costs against a fresh Dijkstra over the
mutated network, so a row in the table is also a proof that the run stayed
parity-exact under its fault sequence.

Run directly (``python benchmarks/bench_chaos.py``) for the full table,
``--smoke`` for the short CI grid (with a markdown copy for the CI job
summary), or through pytest like the other benchmark modules.
"""

from __future__ import annotations

import sys

from repro.experiments.harness import (
    RunSpec,
    deterministic_summary,
    run,
    run_grid,
)

from _common import save_grid

BACKENDS = ("ch",)
POLICIES = ("coalesce", "repair")
SCENARIOS = ("stadium_surge", "bridge_closure")
CHAOS = ("flaky_oracle", "oracle_meltdown")
#: Workload scale of the full benchmark (the smoke run shrinks it further).
SCALE = 0.08
CITY_SCALE = 0.4
ALGORITHM = "pruneGDP"

#: Grid columns: row key -> (printed label, value format).
COLUMNS: dict[str, tuple[str, str]] = {
    "chaos": ("chaos", "s"),
    "scenario": ("scenario", "s"),
    "backend": ("backend", "s"),
    "policy": ("policy", "s"),
    "faults": ("faults", "d"),
    "retries": ("retries", "d"),
    "breaker_trips": ("trips", "d"),
    "degraded": ("degraded", "d"),
    "overruns": ("overrun", "d"),
    "probe_failures": ("probe fail", "d"),
    "self_heals": ("heals", "d"),
    "recovery_ms": ("recovery ms", ".1f"),
    "rebuilds": ("rebuilds", "d"),
    "fallback_q": ("fallback q", "d"),
    "service_rate": ("svc rate", ".3f"),
    "unified_cost": ("unified", ".0f"),
}
VERIFY_NOTE = (
    "Every accepted assignment's leg costs were verified against fresh "
    "Dijkstra over the mutated network; a row in this table implies the run "
    "completed and stayed parity-exact under its injected fault sequence."
)


def _case(scenario: str, backend: str, policy: str, **kwargs) -> dict:
    row = run(RunSpec(
        scenario=scenario, backend=backend, refresh_policy=policy, **kwargs
    )).row
    assert row is not None
    return row


def _grid(chaos_names, *, scale: float) -> list[dict]:
    rows = []
    for chaos in chaos_names:
        specs = RunSpec.grid(
            scenarios=SCENARIOS, backends=BACKENDS, policies=POLICIES,
            chaos=chaos, scale=scale, city_scale=CITY_SCALE,
            algorithm=ALGORITHM,
        )
        for outcome in run_grid(specs):
            assert outcome.row is not None
            rows.append({"chaos": chaos, **outcome.row})
    return rows


def full_rows() -> list[dict]:
    return _grid(CHAOS, scale=SCALE)


def smoke_rows() -> list[dict]:
    """The CI grid: ``flaky_oracle`` under both policies."""
    return _grid(("flaky_oracle",), scale=0.04)


def _save_grid(rows: list[dict], name: str, title: str) -> None:
    save_grid(name, rows, COLUMNS, title=title, note=VERIFY_NOTE)


# ---------------------------------------------------------------------- #
# pytest entry points (mirroring the other benchmark modules)
# ---------------------------------------------------------------------- #
def test_chaos_smoke_grid():
    """The CI gate: every cell survives its fault sequence (completing with
    assignment verification on *is* the parity check) and the chaos layer
    actually injected faults."""
    rows = smoke_rows()
    for row in rows:
        assert row["events"] > 0, row
        assert row["faults"] > 0, row
    _save_grid(
        rows, "chaos_smoke",
        "Chaos smoke grid (flaky_oracle, policy x scenario, parity-verified)",
    )


def test_meltdown_engages_the_full_ladder():
    """Under ``oracle_meltdown`` every refresh policy must exercise the whole
    degradation ladder on stadium_surge: breaker trips, degraded-dispatcher
    batches and probe-triggered self-heals all nonzero."""
    for policy in POLICIES:
        row = _case(
            "stadium_surge", "ch", policy,
            chaos="oracle_meltdown", scale=0.05, city_scale=0.35,
        )
        assert row["breaker_trips"] > 0, (policy, row)
        assert row["degraded"] > 0, (policy, row)
        assert row["self_heals"] > 0, (policy, row)
        assert row["recovery_ms"] > 0.0, (policy, row)


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
    row = _case(
        "stadium_surge", "ch", "coalesce",
        chaos="oracle_meltdown", scale=0.05, city_scale=0.35,
    )
    assert row["overruns"] >= row["breaker_trips"] // 2
    assert row["degraded"] > 0
    assert row["service_rate"] > 0.5


def main() -> None:
    if "--smoke" in sys.argv:
        _save_grid(
            smoke_rows(), "chaos_smoke",
            "Chaos smoke grid (flaky_oracle, policy x scenario, parity-verified)",
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
