"""Figure 11: metrics versus vehicle capacity (2 to 6 seats)."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure


def test_figure11_capacity_sweep(benchmark):
    def run():
        return figures.figure("fig11", algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure11_capacity", "fig11", rows)
    assert len(rows) == len(figures.FIGURES["fig11"].values) * len(CORE_ALGORITHMS) * 2
    for row in rows:
        assert 0.0 <= row["service_rate"] <= 1.0
