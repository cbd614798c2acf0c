"""Figure 14 / Appendix A: estimated memory consumption per algorithm."""

from __future__ import annotations

from repro.experiments import figures

from _common import ALL_ALGORITHMS, BENCH_SCALE, save_figure


def test_figure14_memory_consumption(benchmark):
    def run():
        return figures.figure(
            "fig14",
            presets=("chd", "nyc"), algorithms=ALL_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure14_memory", figure)
    for sweep in figure.sweeps.values():
        by_algorithm = {row.algorithm: row.peak_memory_bytes for row in sweep.rows}
        # Batch methods need extra storage for their per-batch structures and
        # RTV's ILP makes it the heaviest, as in the paper's appendix.
        assert by_algorithm["RTV"] >= by_algorithm["pruneGDP"]
        assert by_algorithm["RTV"] >= by_algorithm["TicketAssign+"]
