"""Figure 10: metrics versus the deadline parameter gamma (1.2 to 2.0)."""

from __future__ import annotations

from repro.experiments import figures

from _common import ALL_ALGORITHMS, BENCH_SCALE, save_figure

GAMMA_VALUES = (1.2, 1.5, 2.0)


def test_figure10_deadline_sweep(benchmark):
    def run():
        return figures.figure(
            "fig10",
            values=GAMMA_VALUES, presets=("chd", "nyc"),
            algorithms=ALL_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure10_deadline", figure)
    # Looser deadlines raise the service rate of the batch methods, the
    # trend the paper highlights (SARD above 90% at gamma = 1.8).
    for sweep in figure.sweeps.values():
        sard = dict(sweep.series("service_rate"))["SARD"]
        assert sard[-1][1] >= sard[0][1] - 0.05
