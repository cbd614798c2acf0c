"""Tables V and VI: the angle-pruning ablation (SARD versus SARD-O).

The paper reports that angle pruning removes up to 42% of the shortest-path
queries on Cainiao (Table V) and ~7% on CHD/NYC (Table VI) with almost no
change in unified cost or service rate.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_text


def _format(rows) -> str:
    header = f"{'dataset':10s} {'method':8s} {'unified_cost':>14s} {'service_rate':>13s} {'#SP queries':>12s} {'time (s)':>9s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.dataset:10s} {row.method:8s} {row.unified_cost:14.1f} "
            f"{row.service_rate:13.3f} {row.shortest_path_queries:12d} {row.running_time:9.3f}"
        )
    return "\n".join(lines)


def test_table5_cainiao_angle_pruning(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.angle_pruning_ablation(presets=("cainiao",), scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    save_text("table5_angle_pruning_cainiao", _format(rows))
    by_method = {row.method: row for row in rows}
    # SARD-O never issues more shortest-path queries than plain SARD and its
    # service rate stays within a few points.
    assert by_method["SARD-O"].shortest_path_queries <= by_method["SARD"].shortest_path_queries
    assert by_method["SARD-O"].service_rate >= by_method["SARD"].service_rate - 0.1


def test_table6_chd_nyc_angle_pruning(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.angle_pruning_ablation(presets=("chd", "nyc"), scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    save_text("table6_angle_pruning_chd_nyc", _format(rows))
    for dataset in sorted({row.dataset for row in rows}):
        subset = {row.method: row for row in rows if row.dataset == dataset}
        assert subset["SARD-O"].shortest_path_queries <= subset["SARD"].shortest_path_queries
        assert subset["SARD-O"].service_rate >= subset["SARD"].service_rate - 0.1
