"""Tables V and VI: the angle-pruning ablation (SARD versus SARD-O).

The paper reports that angle pruning removes up to 42% of the shortest-path
queries on Cainiao (Table V) and ~7% on CHD/NYC (Table VI) with almost no
change in unified cost or service rate.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, METRIC_COLUMNS, METRIC_NOTE, save_grid

COLUMNS = {"dataset": ("dataset", "s"), "method": ("method", "s"), **METRIC_COLUMNS}


def test_table5_cainiao_angle_pruning(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.angle_pruning_ablation(presets=("cainiao",), scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    save_grid(
        "table5_angle_pruning_cainiao", rows, COLUMNS,
        title="Table V -- angle pruning on Cainiao", note=METRIC_NOTE,
    )
    by_method = {row["method"]: row for row in rows}
    # SARD-O never issues more shortest-path queries than plain SARD and its
    # service rate stays within a few points.
    sard, pruned = by_method["SARD"], by_method["SARD-O"]
    assert pruned["shortest_path_queries"] <= sard["shortest_path_queries"]
    assert pruned["service_rate"] >= sard["service_rate"] - 0.1


def test_table6_chd_nyc_angle_pruning(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.angle_pruning_ablation(presets=("chd", "nyc"), scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    save_grid(
        "table6_angle_pruning_chd_nyc", rows, COLUMNS,
        title="Table VI -- angle pruning on CHD and NYC", note=METRIC_NOTE,
    )
    for dataset in sorted({row["dataset"] for row in rows}):
        subset = {row["method"]: row for row in rows if row["dataset"] == dataset}
        sard, pruned = subset["SARD"], subset["SARD-O"]
        assert pruned["shortest_path_queries"] <= sard["shortest_path_queries"]
        assert pruned["service_rate"] >= sard["service_rate"] - 0.1
