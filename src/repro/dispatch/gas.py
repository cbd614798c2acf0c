"""GAS: additive-tree batch dispatch with profit-greedy selection (Zeng et al. [33]).

GAS enumerates feasible request groups per vehicle with an additive tree and
lets vehicles pick groups greedily -- in random vehicle order -- maximising
the group's *profit*, measured as the total direct trip length of its
members.  It is the strongest published batch baseline the paper compares
against: close to SARD in solution quality but much slower because every
vehicle enumerates combinations over the whole batch rather than over the
requests that proposed to it.
"""

from __future__ import annotations

# DET002 audit: every draw below flows through a seeded random.Random
# stream; the module-global generator is never called (repro-lint enforced).
import random

from ..grouping.additive_tree import GroupingStatistics, build_groups
from ..observability.trace import get_tracer
from ..shareability.builder import DynamicShareabilityGraphBuilder
from .base import (
    DispatchContext,
    DispatchResult,
    Dispatcher,
    nearest_requests,
    requests_by_vehicle,
)


class GASDispatcher(Dispatcher):
    """Greedy additive-tree dispatcher with random vehicle ordering."""

    name = "GAS"
    #: Seed of the vehicle-order stream, restarted by :meth:`reset`.
    seed = 97
    #: Cap on the requests one vehicle enumerates groups over.
    max_pool = 400
    #: Bound on the greedy scans of the fleet within one batch.
    max_passes = 3

    def __init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._builder: DynamicShareabilityGraphBuilder | None = None
        self.grouping_stats = GroupingStatistics()
        self._last_group_count = 0

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._builder = None
        self.grouping_stats = GroupingStatistics()
        self._last_group_count = 0

    def estimated_memory_bytes(self) -> int:
        total = 300 * self._last_group_count
        if self._builder is not None:
            total += self._builder.graph.estimated_memory_bytes()
        return total

    def dispatch(self, context: DispatchContext) -> DispatchResult:
        # GAS does not use angle pruning: its feasibility graph keeps every
        # shareable pair, which also makes its memory footprint comparable to
        # SARD's (Figure 14).
        builder = self._builder
        if builder is None:
            builder = self._builder = context.shareability_builder(angle_pruning=False)
        tracer = get_tracer()
        with tracer.span("gas.sync_graph") as sync_span:
            stale, _ = builder.sync(context.pending)
            graph = builder.graph
            sync_span.tag("stale", stale)
            sync_span.tag("graph_edges", graph.num_edges)

        with tracer.span(
            "gas.passes", pending=len(context.pending), vehicles=len(context.vehicles)
        ):
            remaining = {request.request_id: request for request in context.pending}
            vehicles = list(context.vehicles)
            self._rng.shuffle(vehicles)
            # RV-style pruning: each vehicle enumerates only the requests whose
            # pick-up it can plausibly reach before the waiting deadline.
            reachable = requests_by_vehicle(context, list(remaining.values()))
            routes = context.working_routes()
            # GAS keeps scanning its additive index greedily until no vehicle
            # can take another profitable group, so several passes over the
            # fleet may assign additional groups on top of earlier ones.
            for _ in range(self.max_passes):
                progressed = False
                for vehicle in vehicles:
                    if not remaining:
                        break
                    route = routes[vehicle.vehicle_id]
                    if route.free_seats <= 0:
                        continue
                    pool = [
                        request
                        for request in reachable.get(vehicle.vehicle_id, ())
                        if request.request_id in remaining
                    ]
                    if not pool:
                        continue
                    groups = build_groups(
                        nearest_requests(vehicle, pool, context, self.max_pool),
                        graph,
                        route,
                        context.oracle,
                        max_group_size=context.config.capacity,
                        stats=self.grouping_stats,
                    )
                    self._last_group_count = max(self._last_group_count, len(groups))
                    if not groups:
                        continue
                    # Profit-greedy: maximise total direct trip length of the
                    # group, breaking ties toward the smaller added travel
                    # cost.
                    best = max(groups, key=lambda g: (g.direct_cost, -g.delta_cost))
                    routes.extend(vehicle.vehicle_id, best.schedule, best.requests)
                    for rid in best.members:
                        remaining.pop(rid, None)
                    builder.remove(best.members)
                    progressed = True
                if not progressed or not remaining:
                    break
        return DispatchResult(assignments=routes.assignments())
