"""Figure 15: the five Cainiao (delivery) sweeps.

The paper repeats the vehicle, request, deadline, penalty and batch-period
sweeps on the Cainiao delivery dataset (Appendix B).  This benchmark runs the
scaled-down equivalents on the ``cainiao`` synthetic preset.
"""

from __future__ import annotations

from repro.experiments import figures

from _common import BENCH_SCALE, save_figure

PARAMETERS = (
    "num_vehicles", "num_requests", "gamma", "penalty_coefficient", "batch_period",
)


def test_figure15_cainiao_sweeps(benchmark):
    def run():
        return {
            parameter: figures.figure(f"fig15_{parameter}", scale=BENCH_SCALE)
            for parameter in PARAMETERS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for parameter, rows in results.items():
        save_figure(f"figure15_cainiao_{parameter}", f"fig15_{parameter}", rows)
        for row in rows:
            assert row["dataset"] == "Cainiao"
            assert 0.0 <= row["service_rate"] <= 1.0
