"""Tables V and VI: the angle-pruning ablation (SARD versus SARD-O).

The paper reports that angle pruning removes up to 42% of the shortest-path
queries on Cainiao (Table V) and ~7% on CHD/NYC (Table VI) with almost no
change in unified cost or service rate.

Under pytest the tables land in the test's ``tmp_path``; ``python
bench_table5_6_angle_pruning.py`` (from ``benchmarks/``) rewrites the
committed ``results/table5_*`` and ``results/table6_*``.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import figures

from _common import BENCH_SCALE, METRIC_COLUMNS, METRIC_NOTE, RESULTS_DIR, save_grid

COLUMNS = {"dataset": ("dataset", "s"), "method": ("method", "s"), **METRIC_COLUMNS}

#: Table name -> (title, presets).
TABLES = {
    "table5_angle_pruning_cainiao": ("Table V -- angle pruning on Cainiao", ("cainiao",)),
    "table6_angle_pruning_chd_nyc": ("Table VI -- angle pruning on CHD and NYC", ("chd", "nyc")),
}


def table(name: str, directory: Path) -> list[dict]:
    """Run one table's ablation and save its grid under ``directory``."""
    title, presets = TABLES[name]
    rows = figures.angle_pruning_ablation(presets=presets, scale=BENCH_SCALE)
    save_grid(name, rows, COLUMNS, title=title, note=METRIC_NOTE, directory=directory)
    return rows


def test_table5_cainiao_angle_pruning(benchmark, tmp_path):
    rows = benchmark.pedantic(
        lambda: table("table5_angle_pruning_cainiao", tmp_path), rounds=1, iterations=1
    )
    by_method = {row["method"]: row for row in rows}
    # SARD-O never issues more shortest-path queries than plain SARD and its
    # service rate stays within a few points.
    sard, pruned = by_method["SARD"], by_method["SARD-O"]
    assert pruned["shortest_path_queries"] <= sard["shortest_path_queries"]
    assert pruned["service_rate"] >= sard["service_rate"] - 0.1


def test_table6_chd_nyc_angle_pruning(benchmark, tmp_path):
    rows = benchmark.pedantic(
        lambda: table("table6_angle_pruning_chd_nyc", tmp_path), rounds=1, iterations=1
    )
    for dataset in sorted({row["dataset"] for row in rows}):
        subset = {row["method"]: row for row in rows if row["dataset"] == dataset}
        sard, pruned = subset["SARD"], subset["SARD-O"]
        assert pruned["shortest_path_queries"] <= sard["shortest_path_queries"]
        assert pruned["service_rate"] >= sard["service_rate"] - 0.1


if __name__ == "__main__":
    for name in TABLES:
        table(name, RESULTS_DIR)
