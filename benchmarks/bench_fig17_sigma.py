"""Figure 17: capacity-variance sweep on the CHD and NYC presets."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure, series


def test_figure17_capacity_variance_sweep(benchmark):
    def run():
        return figures.figure("fig17", algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure17_sigma", "fig17", rows)
    # The paper finds the vehicle-capacity distribution has a negligible
    # impact on ridesharing quality: every algorithm's curve stays flat.
    for lines in series(rows, "service_rate").values():
        for algorithm, points in lines.items():
            rates = [value for _, value in points]
            assert max(rates) - min(rates) <= 0.25
