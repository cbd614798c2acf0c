"""Figure 9: metrics versus the number of requests (10K to 250K, scaled)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure, series


def test_figure9_request_volume_sweep(benchmark):
    def run():
        return figures.figure("fig9", algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure09_requests", "fig9", rows)
    assert len(rows) == len(figures.FIGURES["fig9"].values) * len(CORE_ALGORITHMS) * 2
    # Unified cost grows with the number of requests for every algorithm
    # (more demand means more travel and more penalties), as in the paper.
    for lines in series(rows, "unified_cost").values():
        for algorithm, points in lines.items():
            assert points[-1][1] >= points[0][1]
