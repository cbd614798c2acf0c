"""Figure 8: unified cost, service rate and running time versus fleet size.

The paper sweeps |W| from 1K to 5K vehicles on the CHD and NYC datasets; this
benchmark sweeps the scaled-down equivalents and regenerates the same three
metric series for every algorithm.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import ALL_ALGORITHMS, BENCH_SCALE, save_figure

#: Scaled sweep: the paper's 1K / 3K / 5K fleet sizes.
VEHICLE_VALUES = (1_000, 3_000, 5_000)


def test_figure8_fleet_size_sweep(benchmark):
    def run():
        return figures.figure(
            "fig8",
            values=VEHICLE_VALUES, presets=("chd", "nyc"),
            algorithms=ALL_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure08_vehicles", figure)
    rows = figure.all_rows()
    assert len(rows) == len(VEHICLE_VALUES) * len(ALL_ALGORITHMS) * 2
    # More vehicles never lowers SARD's service rate on the same trace.
    for sweep in figure.sweeps.values():
        series = dict(sweep.series("service_rate"))["SARD"]
        assert series[-1][1] >= series[0][1] - 0.05
