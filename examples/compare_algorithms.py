"""Compare SARD against the paper's five baselines on one workload.

Reproduces the "Summary of the experimental study" at example scale: run
every dispatcher on the same CHD-style workload and print a table of unified
cost, service rate and dispatching time.

Run with::

    python examples/compare_algorithms.py [preset]

where ``preset`` is ``chd`` (default), ``nyc`` or ``cainiao``.
"""

from __future__ import annotations

import sys

from repro import Simulator, make_dispatcher, make_workload

ALGORITHMS = ("pruneGDP", "TicketAssign+", "DARM+DPRS", "RTV", "GAS", "SARD")


def main(preset: str = "chd") -> None:
    workload = make_workload(preset, scale=0.1, city_scale=0.5)
    print(f"{workload.name}: {workload.num_requests} requests, "
          f"{workload.workload_config.num_vehicles} vehicles, "
          f"gamma={workload.simulation_config.gamma}, "
          f"Delta={workload.simulation_config.batch_period}s\n")
    header = f"{'algorithm':15s} {'service rate':>12s} {'unified cost':>14s} {'dispatch (s)':>13s}"
    print(header)
    print("-" * len(header))
    for name in ALGORITHMS:
        simulator = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher(name),
            config=workload.simulation_config,
        )
        result = simulator.run()
        print(f"{name:15s} {result.service_rate:12.1%} "
              f"{result.unified_cost:14,.0f} {result.metrics.dispatch_seconds:13.2f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "chd")
