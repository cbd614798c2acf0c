"""Figure 13: the batch-mode methods versus the batching period Delta."""

from __future__ import annotations

from repro.experiments import figures
from repro.experiments.figures import BATCH_ALGORITHMS

from _common import BENCH_SCALE, save_figure

BATCH_PERIODS = (1, 3, 9)


def test_figure13_batch_period_sweep(benchmark):
    def run():
        return figures.figure(
            "fig13",
            values=BATCH_PERIODS, presets=("chd", "nyc"),
            algorithms=BATCH_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure13_batch_period", figure)
    rows = figure.all_rows()
    assert {row.algorithm for row in rows} == set(BATCH_ALGORITHMS)
    assert len(rows) == len(BATCH_PERIODS) * len(BATCH_ALGORITHMS) * 2
