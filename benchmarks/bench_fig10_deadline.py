"""Figure 10: metrics versus the deadline parameter gamma (1.2 to 2.0)."""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_figure, series


def test_figure10_deadline_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.figure("fig10", scale=BENCH_SCALE), rounds=1, iterations=1
    )
    save_figure("figure10_deadline", "fig10", rows)
    # Looser deadlines raise the service rate of the batch methods, the
    # trend the paper highlights (SARD above 90% at gamma = 1.8).
    for lines in series(rows, "service_rate").values():
        sard = lines["SARD"]
        assert sard[-1][1] >= sard[0][1] - 0.05
