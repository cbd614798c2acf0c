"""Headline comparison: all six algorithms on the default CHD / NYC settings.

This is the "Summary of the experimental study" reproduction: batch methods
(RTV, GAS, SARD) versus online methods (pruneGDP, TicketAssign+, DARM+DPRS)
under the default parameters, with SARD expected to be the fastest batch
method and to match or beat every method on unified cost.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import ALL_ALGORITHMS, BENCH_SCALE, save_figure


def test_headline_default_parameters(benchmark):
    def run():
        # A single sweep point at the paper's default penalty reproduces the
        # default-parameter columns of Figures 8-12.
        return figures.figure(
            "fig12",
            values=(10,), presets=("chd", "nyc"),
            algorithms=ALL_ALGORITHMS, scale=BENCH_SCALE,
        )

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("headline_default_comparison", figure)
    for preset, sweep in figure.sweeps.items():
        rows = {row.algorithm: row for row in sweep.rows}
        batch_cost = min(rows[name].unified_cost for name in ("RTV", "GAS", "SARD"))
        online_cost = min(
            rows[name].unified_cost
            for name in ("pruneGDP", "TicketAssign+", "DARM+DPRS")
        )
        # Batch methods achieve a unified cost at least as good as online
        # methods (within 5% slack for the small scaled instances).
        assert batch_cost <= online_cost * 1.05
        # SARD is the fastest batch-based method.
        assert rows["SARD"].running_time <= rows["RTV"].running_time
        assert rows["SARD"].running_time <= rows["GAS"].running_time
        # ... and its unified cost is within a whisker of the best algorithm.
        best_cost = min(row.unified_cost for row in rows.values())
        assert rows["SARD"].unified_cost <= best_cost * 1.10
