"""Figure 11: metrics versus vehicle capacity (2 to 6 seats)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure

CAPACITY_VALUES = (2, 3, 6)


def test_figure11_capacity_sweep(benchmark):
    def run():
        return figures.figure(
            "fig11",
            values=CAPACITY_VALUES, presets=("chd", "nyc"),
            algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure11_capacity", figure)
    rows = figure.all_rows()
    assert len(rows) == len(CAPACITY_VALUES) * len(CORE_ALGORITHMS) * 2
    for row in rows:
        assert 0.0 <= row.service_rate <= 1.0
