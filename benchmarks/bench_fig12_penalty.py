"""Figure 12: metrics versus the penalty coefficient pr (2 to 30)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure

PENALTY_VALUES = (2, 10, 30)


def test_figure12_penalty_sweep(benchmark):
    def run():
        return figures.figure(
            "fig12",
            values=PENALTY_VALUES, presets=("chd", "nyc"),
            algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure12_penalty", figure)
    for sweep in figure.sweeps.values():
        for algorithm, series in sweep.series("unified_cost").items():
            # The unified cost is proportional to the penalty coefficient for
            # every greedy method (the paper's observation): larger pr means
            # larger cost on the same trace.
            assert series[-1][1] >= series[0][1]
        for algorithm, series in sweep.series("service_rate").items():
            # Service rates of the greedy methods are unaffected by pr.
            rates = [value for _, value in series]
            assert max(rates) - min(rates) <= 0.15
