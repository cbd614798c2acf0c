"""Figure 14 / Appendix A: estimated memory consumption per algorithm."""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_figure, series


def test_figure14_memory_consumption(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.figure("fig14", scale=BENCH_SCALE), rounds=1, iterations=1
    )
    save_figure("figure14_memory", "fig14", rows)
    for lines in series(rows, "peak_memory_bytes").values():
        by_algorithm = {algorithm: points[0][1] for algorithm, points in lines.items()}
        # Batch methods need extra storage for their per-batch structures and
        # RTV's ILP makes it the heaviest, as in the paper's appendix.
        assert by_algorithm["RTV"] >= by_algorithm["pruneGDP"]
        assert by_algorithm["RTV"] >= by_algorithm["TicketAssign+"]
