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
from dataclasses import replace

from ..grouping.additive_tree import GroupingStatistics, build_groups
from ..observability.trace import get_tracer
from ..shareability.builder import DynamicShareabilityGraphBuilder
from .base import (
    Assignment,
    DispatchContext,
    DispatchResult,
    Dispatcher,
    requests_by_vehicle,
)


class GASDispatcher(Dispatcher):
    """Greedy additive-tree dispatcher with random vehicle ordering."""

    name = "GAS"

    def __init__(
        self, *, seed: int = 97, max_pool: int | None = 400, max_passes: int = 3
    ) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._max_pool = max_pool
        self._max_passes = max_passes
        self._builder: DynamicShareabilityGraphBuilder | None = None
        self.grouping_stats = GroupingStatistics()
        self._last_group_count = 0

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
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
        config = context.config.with_overrides(angle_threshold=None)
        if self._builder is None:
            self._builder = DynamicShareabilityGraphBuilder(
                network=context.network,
                oracle=context.oracle,
                config=config,
                average_speed=context.average_speed,
            )
        builder = self._builder
        tracer = get_tracer()
        with tracer.span("gas.sync_graph") as sync_span:
            pending_by_id = {request.request_id: request for request in context.pending}
            stale = [
                rid for rid in list(builder.graph.request_ids()) if rid not in pending_by_id
            ]
            builder.remove(stale)
            builder.update(
                [r for r in context.pending if r.request_id not in builder.graph]
            )
            graph = builder.graph
            sync_span.tag("stale", len(stale))
            sync_span.tag("graph_edges", graph.num_edges)

        with tracer.span(
            "gas.passes", pending=len(context.pending), vehicles=len(context.vehicles)
        ):
            remaining = dict(pending_by_id)
            vehicles = list(context.vehicles)
            self._rng.shuffle(vehicles)
            # RV-style pruning: each vehicle enumerates only the requests whose
            # pick-up it can plausibly reach before the waiting deadline.
            reachable = requests_by_vehicle(context, list(pending_by_id.values()))
            routes = context.working_routes()
            accepted: dict[int, list] = {}
            # GAS keeps scanning its additive index greedily until no vehicle
            # can take another profitable group, so several passes over the
            # fleet may assign additional groups on top of earlier ones.
            for _ in range(self._max_passes):
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
                    if self._max_pool is not None and len(pool) > self._max_pool:
                        # Keep the closest requests; GAS on the full city
                        # would be intractable in pure Python and the paper's
                        # point is exactly that GAS enumerates too much.
                        pool.sort(
                            key=lambda r: context.network.euclidean(
                                vehicle.location, r.source
                            )
                        )
                        pool = pool[: self._max_pool]
                    if not pool:
                        continue
                    groups = build_groups(
                        pool,
                        graph,
                        route,
                        context.oracle,
                        max_group_size=config.group_size_limit,
                        stats=self.grouping_stats,
                    )
                    self._last_group_count = max(self._last_group_count, len(groups))
                    if not groups:
                        continue
                    # Profit-greedy: maximise total direct trip length of the
                    # group, breaking ties toward the smaller added travel
                    # cost.
                    best = max(groups, key=lambda g: (g.direct_cost, -g.delta_cost))
                    accepted.setdefault(vehicle.vehicle_id, []).extend(best.requests)
                    routes[vehicle.vehicle_id] = replace(route, schedule=best.schedule)
                    for rid in best.members:
                        remaining.pop(rid, None)
                    builder.remove(best.members)
                    progressed = True
                if not progressed or not remaining:
                    break
            assignments = [
                Assignment(
                    vehicle_id=vehicle_id,
                    schedule=routes[vehicle_id].schedule,
                    new_requests=tuple(requests),
                )
                for vehicle_id, requests in accepted.items()
            ]
        return DispatchResult(assignments=assignments)
