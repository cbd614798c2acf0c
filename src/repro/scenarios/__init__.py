"""Dynamic-world scenario engine: timed events, timelines, oracle refresh.

The static reproduction freezes the world at t=0; this package makes it
move.  A :class:`Scenario` bundles demand-surge windows (consumed by the
request generator) with a builder for timed :class:`WorldEvent` objects --
traffic waves, road closures and reopenings, rider cancellations, vehicle
shift starts and ends -- that a :class:`ScenarioTimeline` feeds into
:class:`~repro.simulation.engine.Simulator` between dispatch batches.  An
:class:`OracleRefreshPolicy` decides, per mutation burst, whether the
preprocessed routing structures are served through an exact Dijkstra
fallback and coalesced into one rebuild at the next quiet batch boundary
(``coalesce``) or refreshed at once -- a snapshot swap for an exact
reversion, else a full rebuild (``repair``); the refresh overhead (rebuilds, repairs, fallback queries,
stale-serving time) lands in the run metrics.
"""

from .events import (
    CancelRequests,
    CloseEdges,
    ReopenEdges,
    RestoreEdges,
    ScaleEdges,
    VehicleShiftEnd,
    VehicleShiftStart,
    WorldEvent,
    WorldView,
    road_closure,
    traffic_wave,
)
from .presets import (
    CHAOS_PRESETS,
    SCENARIO_PRESETS,
    corridor_edges,
    make_chaos_config,
    make_scenario,
    make_scenario_workload,
    ring_edges,
    zone_edges,
)
from .refresh import (
    CoalescingRefreshPolicy,
    OracleRefreshPolicy,
    RefreshStats,
    RepairRefreshPolicy,
    make_refresh_policy,
)
from .timeline import Scenario, ScenarioTimeline

__all__ = [
    "WorldEvent",
    "WorldView",
    "ScaleEdges",
    "RestoreEdges",
    "CloseEdges",
    "ReopenEdges",
    "CancelRequests",
    "VehicleShiftStart",
    "VehicleShiftEnd",
    "traffic_wave",
    "road_closure",
    "Scenario",
    "ScenarioTimeline",
    "OracleRefreshPolicy",
    "CoalescingRefreshPolicy",
    "RepairRefreshPolicy",
    "RefreshStats",
    "make_refresh_policy",
    "SCENARIO_PRESETS",
    "CHAOS_PRESETS",
    "make_chaos_config",
    "make_scenario",
    "make_scenario_workload",
    "zone_edges",
    "ring_edges",
    "corridor_edges",
]
