"""Figure 8: unified cost, service rate and running time versus fleet size.

The paper sweeps |W| from 1K to 5K vehicles on the CHD and NYC datasets; this
benchmark sweeps the scaled-down equivalents and regenerates the same three
metric series for every algorithm.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_figure, series


def test_figure8_fleet_size_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.figure("fig8", scale=BENCH_SCALE), rounds=1, iterations=1
    )
    save_figure("figure08_vehicles", "fig8", rows)
    values = figures.FIGURES["fig8"].values
    assert len(rows) == len(values) * len(figures.DEFAULT_ALGORITHMS) * 2
    # More vehicles never lowers SARD's service rate on the same trace.
    for lines in series(rows, "service_rate").values():
        sard = lines["SARD"]
        assert sard[-1][1] >= sard[0][1] - 0.05
