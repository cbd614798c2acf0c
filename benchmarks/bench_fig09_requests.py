"""Figure 9: metrics versus the number of requests (10K to 250K, scaled)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure

REQUEST_VALUES = (10_000, 100_000, 250_000)


def test_figure9_request_volume_sweep(benchmark):
    def run():
        return figures.figure(
            "fig9",
            values=REQUEST_VALUES, presets=("chd", "nyc"),
            algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure09_requests", figure)
    rows = figure.all_rows()
    assert len(rows) == len(REQUEST_VALUES) * len(CORE_ALGORITHMS) * 2
    # Unified cost grows with the number of requests for every algorithm
    # (more demand means more travel and more penalties), as in the paper.
    for sweep in figure.sweeps.values():
        for algorithm, series in sweep.series("unified_cost").items():
            assert series[-1][1] >= series[0][1]
