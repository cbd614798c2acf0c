"""Figure 13: the batch-mode methods versus the batching period Delta."""

from __future__ import annotations

from repro.experiments import figures
from repro.experiments.figures import BATCH_ALGORITHMS

from _common import BENCH_SCALE, save_figure


def test_figure13_batch_period_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.figure("fig13", scale=BENCH_SCALE), rounds=1, iterations=1
    )
    save_figure("figure13_batch_period", "fig13", rows)
    assert {row["algorithm"] for row in rows} == set(BATCH_ALGORITHMS)
    assert len(rows) == len(figures.FIGURES["fig13"].values) * len(BATCH_ALGORITHMS) * 2
