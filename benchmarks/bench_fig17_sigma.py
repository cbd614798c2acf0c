"""Figure 17: capacity-variance sweep on the CHD and NYC presets."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure

SIGMA_VALUES = (0.0, 1.0, 2.0)


def test_figure17_capacity_variance_sweep(benchmark):
    def run():
        return figures.figure(
            "fig17",
            values=SIGMA_VALUES, presets=("chd", "nyc"),
            algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure17_sigma", figure)
    # The paper finds the vehicle-capacity distribution has a negligible
    # impact on ridesharing quality: every algorithm's curve stays flat.
    for sweep in figure.sweeps.values():
        for algorithm, series in sweep.series("service_rate").items():
            rates = [value for _, value in series]
            assert max(rates) - min(rates) <= 0.25
