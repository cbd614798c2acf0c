"""Synthetic workloads standing in for the Didi / NYC TLC / Cainiao traces.

Each workload bundles a road network, a distance oracle, a fleet of vehicles
and a stream of requests whose statistical shape matches the corresponding
real dataset: log-normal trip lengths (the paper fits a log-normal to both
cities), clustered origins/destinations around demand hotspots, and Poisson
request arrivals at the per-second rates reported in Section V-A.
"""

from .requests_gen import RequestGenerator, generate_vehicles
from .presets import Workload, make_workload, WORKLOAD_PRESETS

__all__ = [
    "RequestGenerator",
    "generate_vehicles",
    "Workload",
    "make_workload",
    "WORKLOAD_PRESETS",
]
