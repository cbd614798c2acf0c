"""Dynamic world: a bridge closure mid-run, served without going stale.

Builds an NYC-style workload together with the ``bridge_closure`` scenario:
the central segment of the main west-east corridor closes a quarter of the
way into the run and reopens at three quarters.  The SARD dispatcher keeps
dispatching throughout; the ``coalesce`` refresh policy serves the dirty
windows through an exact Dijkstra fallback and folds the rebuild of the
hub-label structures into the next quiet batch boundary.

Run with::

    python examples/bridge_closure.py
"""

from __future__ import annotations

from repro import SARDDispatcher, Simulator, make_scenario_workload
from repro.scenarios import make_refresh_policy
from repro.scenarios.presets import CLOSURE_WINDOW
from repro.simulation.events import EventKind


def main() -> None:
    workload, scenario = make_scenario_workload(
        "nyc",
        "bridge_closure",
        scale=0.1,
        city_scale=0.5,
        simulation_overrides={"routing_backend": "hub_label"},
    )
    print(f"workload: {workload.name} + scenario '{scenario.name}'")
    print(f"  {scenario.description}")
    print(f"  requests : {workload.num_requests}")
    print(f"  vehicles : {workload.workload_config.num_vehicles}")
    print(f"  road net : {workload.network.num_nodes} nodes / "
          f"{workload.network.num_edges} edges")
    timeline = scenario.make_timeline()
    closes, reopens = CLOSURE_WINDOW
    print(f"  events   : {len(timeline)} scheduled "
          f"(closure at {closes:.0%} of the horizon, reopening at {reopens:.0%})")

    simulator = Simulator(
        network=workload.network,
        oracle=workload.fresh_oracle(),
        vehicles=workload.fresh_vehicles(),
        requests=list(workload.requests),
        dispatcher=SARDDispatcher(),
        config=workload.simulation_config,
        timeline=timeline,
        # The policy the scenario names (``coalesce`` by default);
        # ``make_refresh_policy`` is the one way from a name to a policy.
        refresh_policy=make_refresh_policy(config=scenario.config),
    )
    result = simulator.run()
    metrics = result.metrics

    print(f"\nresults ({result.algorithm}, backend hub_label, "
          f"policy {scenario.config.refresh_policy}):")
    print(f"  unified cost     : {metrics.unified_cost:12.1f}")
    print(f"  service rate     : {metrics.service_rate:12.3f}")
    print(f"  dispatch time    : {metrics.dispatch_seconds:12.3f} s")
    closed = result.events.count(EventKind.ROAD_CLOSED)
    reopened = result.events.count(EventKind.ROAD_REOPENED)
    print(f"  world events     : {metrics.scenario_events} applied "
          f"({closed} closure burst, {reopened} reopening burst)")
    print(f"  oracle rebuilds  : {metrics.oracle_rebuilds} "
          f"({metrics.oracle_rebuild_seconds * 1e3:.1f} ms total)")
    print(f"  fallback queries : {metrics.oracle_fallback_queries} "
          f"served exactly while structures were dirty")
    print(f"  stale window     : {metrics.oracle_stale_seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
