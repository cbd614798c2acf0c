"""StructRide reproduction: structure-aware batched dynamic ridesharing.

This package is a from-scratch Python reproduction of *StructRide: A
Framework to Exploit the Structure Information of Shareability Graph in
Ridesharing* (ICDE 2025).  The public API re-exports the pieces a downstream
user typically needs:

* the road-network substrate (:class:`RoadNetwork`, :class:`DistanceOracle`,
  :class:`GridIndex`, synthetic city generators),
* the ridesharing data model (:class:`Request`, :class:`Vehicle`,
  :class:`Schedule`),
* the shareability graph and its builder,
* the SARD dispatcher and the five baselines,
* the batch simulator, the dispatch service and the experiment harness.

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

    outcome = run(RunSpec(mode="single", preset="nyc", algorithm="SARD"))
    print(outcome.simulation.service_rate)
"""

from .config import (
    ChaosConfig,
    DemandSurge,
    ScenarioConfig,
    ServiceConfig,
    SimulationConfig,
    WorkloadConfig,
)
from .exceptions import (
    ConfigError,
    ConfigurationError,
    DispatchError,
    InjectedFaultError,
    NetworkError,
    OracleBuildError,
    OracleRepairError,
    ReproError,
    ResilienceError,
    ScenarioError,
    ScheduleError,
    SchemaError,
    ServiceError,
    UnreachableError,
    WorkloadError,
)
from .network import (
    DistanceOracle,
    GridIndex,
    QueryStatistics,
    RoadNetwork,
    grid_city,
    make_city,
    ring_radial_city,
)
from .model import (
    Batch,
    BatchStream,
    Request,
    RouteState,
    Schedule,
    ScheduleEvaluation,
    Vehicle,
    Waypoint,
    WaypointKind,
)
from .insertion import (
    InsertionOutcome,
    are_shareable,
    best_insertion,
    best_pair_schedule,
    insert_sequence,
)
from .shareability import (
    DynamicShareabilityGraphBuilder,
    ShareabilityGraph,
    expected_sharing_probability,
    shareability_loss,
    substitute_supernode,
)
from .grouping import RequestGroup, build_groups
from .dispatch import (
    DISPATCHER_REGISTRY,
    Assignment,
    DARMDispatcher,
    DispatchContext,
    DispatchResult,
    Dispatcher,
    GASDispatcher,
    PruneGDPDispatcher,
    RTVDispatcher,
    SARDDispatcher,
    TicketAssignDispatcher,
    make_dispatcher,
)
from .simulation import MetricsCollector, SimulationResult, Simulator, unified_cost
from .workloads import Workload, make_workload
from .scenarios import (
    CHAOS_PRESETS,
    Scenario,
    ScenarioTimeline,
    make_chaos_config,
    make_refresh_policy,
    make_scenario,
    make_scenario_workload,
)
from .resilience import (
    BreakerState,
    ChaosOracle,
    CircuitBreaker,
    FaultInjector,
    InvariantProbe,
    ResilienceManager,
    RetryPolicy,
)
from .observability import (
    MetricRegistry,
    SpanRecord,
    SpanTracer,
    get_tracer,
    markdown_report,
    prometheus_text,
    set_tracer,
    spans_to_jsonl,
    tracing,
    use_tracer,
    write_run_artifacts,
)
from .service import (
    Admission,
    AssignmentEvent,
    AssignmentEventKind,
    DispatchService,
    IngestionQueue,
    RejectionReason,
    RideRequest,
    ServiceResult,
    ServiceStats,
)
from .experiments import (
    ResultRow,
    RunResult,
    RunSpec,
    SweepResult,
    run,
    run_grid,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "WorkloadConfig",
    "ScenarioConfig",
    "ServiceConfig",
    "ChaosConfig",
    "DemandSurge",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "ConfigError",
    "ScenarioError",
    "NetworkError",
    "UnreachableError",
    "ScheduleError",
    "DispatchError",
    "WorkloadError",
    "ResilienceError",
    "OracleBuildError",
    "OracleRepairError",
    "InjectedFaultError",
    "ServiceError",
    "SchemaError",
    # network substrate
    "RoadNetwork",
    "DistanceOracle",
    "QueryStatistics",
    "GridIndex",
    "grid_city",
    "ring_radial_city",
    "make_city",
    # data model
    "Request",
    "Vehicle",
    "RouteState",
    "Schedule",
    "ScheduleEvaluation",
    "Waypoint",
    "WaypointKind",
    "Batch",
    "BatchStream",
    # insertion operators
    "InsertionOutcome",
    "best_insertion",
    "insert_sequence",
    "are_shareable",
    "best_pair_schedule",
    # shareability graph
    "ShareabilityGraph",
    "DynamicShareabilityGraphBuilder",
    "shareability_loss",
    "substitute_supernode",
    "expected_sharing_probability",
    # grouping
    "RequestGroup",
    "build_groups",
    # dispatchers
    "Dispatcher",
    "DispatchContext",
    "DispatchResult",
    "Assignment",
    "SARDDispatcher",
    "PruneGDPDispatcher",
    "TicketAssignDispatcher",
    "GASDispatcher",
    "RTVDispatcher",
    "DARMDispatcher",
    "DISPATCHER_REGISTRY",
    "make_dispatcher",
    # simulation
    "Simulator",
    "SimulationResult",
    "MetricsCollector",
    "unified_cost",
    # workloads
    "Workload",
    "make_workload",
    # scenarios
    "Scenario",
    "ScenarioTimeline",
    "make_scenario",
    "make_scenario_workload",
    "make_refresh_policy",
    "CHAOS_PRESETS",
    "make_chaos_config",
    # resilience
    "ResilienceManager",
    "FaultInjector",
    "ChaosOracle",
    "CircuitBreaker",
    "BreakerState",
    "InvariantProbe",
    "RetryPolicy",
    # observability
    "SpanTracer",
    "SpanRecord",
    "MetricRegistry",
    "tracing",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "spans_to_jsonl",
    "prometheus_text",
    "markdown_report",
    "write_run_artifacts",
    # dispatch service
    "DispatchService",
    "ServiceResult",
    "IngestionQueue",
    "Admission",
    "RideRequest",
    "AssignmentEvent",
    "AssignmentEventKind",
    "ServiceStats",
    "RejectionReason",
    # experiments
    "SweepResult",
    "ResultRow",
    "RunSpec",
    "RunResult",
    "run",
    "run_grid",
]
