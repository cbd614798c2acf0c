"""Figure 16: capacity and capacity-variance sweeps on the Cainiao preset."""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_figure

CAINIAO_ALGORITHMS = ("pruneGDP", "RTV", "GAS", "SARD")


def test_figure16_capacity_and_sigma(benchmark):
    def run():
        return {
            parameter: figures.figure(
                f"fig16_{parameter}",
                values=values, algorithms=CAINIAO_ALGORITHMS, scale=BENCH_SCALE,
            )
            for parameter, values in (
                ("capacity", (2, 4, 6)),
                ("capacity_sigma", (0.0, 1.0, 2.0)),
            )
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_figure("figure16_capacity", results["capacity"])
    save_figure("figure16_capacity_sigma", results["capacity_sigma"])
    # Appendix C: the capacity-variance sigma has a negligible effect on the
    # quality metrics -- the curves stay flat.
    sigma_sweep = results["capacity_sigma"].sweeps["cainiao"]
    for algorithm, series in sigma_sweep.series("service_rate").items():
        rates = [value for _, value in series]
        assert max(rates) - min(rates) <= 0.25
