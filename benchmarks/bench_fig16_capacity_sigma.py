"""Figure 16: capacity and capacity-variance sweeps on the Cainiao preset."""

from __future__ import annotations

from repro.experiments import figures

from _common import CORE_ALGORITHMS, BENCH_SCALE, save_figure, series


def test_figure16_capacity_and_sigma(benchmark):
    def run():
        return {
            "capacity": figures.figure(
                "fig16_capacity",
                values=(2, 4, 6), algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
            ),
            "capacity_sigma": figures.figure(
                "fig16_capacity_sigma", algorithms=CORE_ALGORITHMS, scale=BENCH_SCALE,
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure16_capacity", "fig16_capacity", results["capacity"])
    save_figure(
        "figure16_capacity_sigma", "fig16_capacity_sigma", results["capacity_sigma"]
    )
    # Appendix C: the capacity-variance sigma has a negligible effect on the
    # quality metrics -- the curves stay flat.
    sigma_lines = series(results["capacity_sigma"], "service_rate")["Cainiao"]
    for algorithm, points in sigma_lines.items():
        rates = [value for _, value in points]
        assert max(rates) - min(rates) <= 0.25
