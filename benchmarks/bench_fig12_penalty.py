"""Figure 12: metrics versus the penalty coefficient pr (2 to 30)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure, series


def test_figure12_penalty_sweep(benchmark):
    def run():
        return figures.figure("fig12", algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure12_penalty", "fig12", rows)
    for lines in series(rows, "unified_cost").values():
        for algorithm, points in lines.items():
            # The unified cost is proportional to the penalty coefficient for
            # every greedy method (the paper's observation): larger pr means
            # larger cost on the same trace.
            assert points[-1][1] >= points[0][1]
    for lines in series(rows, "service_rate").values():
        for algorithm, points in lines.items():
            # Service rates of the greedy methods are unaffected by pr.
            rates = [value for _, value in points]
            assert max(rates) - min(rates) <= 0.15
