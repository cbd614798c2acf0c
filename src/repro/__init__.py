"""StructRide reproduction: structure-aware batched dynamic ridesharing.

This package is a from-scratch Python reproduction of *StructRide: A
Framework to Exploit the Structure Information of Shareability Graph in
Ridesharing* (ICDE 2025).  The top-level namespace holds the front door --
:func:`run` over a :class:`RunSpec`, and :class:`DispatchService` -- plus
the names the README, the examples and the performance ledger read;
everything else is imported from its subpackage (``repro.network``,
``repro.model``, ``repro.dispatch``, ...).

Quick start -- dispatch as a service::

    from repro import DispatchService, RideRequest, SARDDispatcher, make_workload

    workload = make_workload("nyc", scale=0.1)
    service = DispatchService(
        network=workload.network,
        oracle=workload.fresh_oracle(),
        vehicles=workload.fresh_vehicles(),
        dispatcher=SARDDispatcher(),
        config=workload.simulation_config,
    )
    outcome = service.serve(
        RideRequest.from_request(r) for r in workload.requests
    )
    print(outcome.service_rate, outcome.unified_cost)

or, for one-call experiment runs, the harness front door::

    from repro import RunSpec, run

    outcome = run(RunSpec(preset="nyc", algorithm="SARD"))
    print(outcome.simulation.service_rate)
"""

from .config import ScenarioConfig, ServiceConfig
from .network import DistanceOracle, GridIndex
from .model import Schedule, Vehicle
from .insertion import best_insertion, best_pair_schedule
from .shareability import DynamicShareabilityGraphBuilder, shareability_loss
from .grouping import build_groups
from .dispatch import DISPATCHER_REGISTRY, SARDDispatcher, make_dispatcher
from .simulation import Simulator
from .workloads import make_workload
from .scenarios import make_chaos_config, make_refresh_policy, make_scenario_workload
from .resilience import ResilienceManager
from .observability import SpanTracer, tracing, use_tracer
from .service import (
    AssignmentEventKind,
    DispatchService,
    RejectionReason,
    RideRequest,
    ServiceResult,
)
from .experiments import RunResult, RunSpec, run

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the front door
    "RunSpec",
    "RunResult",
    "run",
    "DispatchService",
    "RideRequest",
    "ServiceResult",
    "AssignmentEventKind",
    "RejectionReason",
    "ServiceConfig",
    # building a run by hand
    "make_workload",
    "make_scenario_workload",
    "ScenarioConfig",
    "make_refresh_policy",
    "Simulator",
    "SARDDispatcher",
    "DISPATCHER_REGISTRY",
    "make_dispatcher",
    "make_chaos_config",
    "ResilienceManager",
    # tracing
    "tracing",
    "SpanTracer",
    "use_tracer",
    # the layers the performance ledger times
    "Vehicle",
    "Schedule",
    "DistanceOracle",
    "GridIndex",
    "DynamicShareabilityGraphBuilder",
    "shareability_loss",
    "build_groups",
    "best_insertion",
    "best_pair_schedule",
]
