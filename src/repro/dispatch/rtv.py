"""RTV: optimal trip-vehicle assignment per batch (Alonso-Mora et al. [27]).

RTV builds the request-vehicle (RV) and request-trip-vehicle (RTV) graphs --
every feasible trip (group of requests) a vehicle could serve -- and solves
an integer linear program choosing at most one trip per vehicle and at most
one trip per request, minimising the added travel cost plus the penalty of
unserved requests.  The paper uses GLPK; this reproduction uses the HiGHS
solver shipped with :func:`scipy.optimize.milp` and falls back to a greedy
rounding when the instance exceeds a size limit (mirroring the paper's note
that RTV hits solver limits for large deadlines).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from ..grouping.additive_tree import GroupingStatistics, build_groups
from ..grouping.group import RequestGroup
from ..shareability.builder import DynamicShareabilityGraphBuilder
from .base import (
    Assignment,
    DispatchContext,
    DispatchResult,
    Dispatcher,
    nearest_requests,
    requests_by_vehicle,
)


class RTVDispatcher(Dispatcher):
    """Integer-programming batch dispatcher over enumerated trips."""

    name = "RTV"
    #: Cap on the requests one vehicle enumerates trips over.
    max_pool = 250
    #: Largest trip count handed to the solver; more are rounded greedily.
    max_variables = 20_000
    #: Solver wall-clock limit per batch, in seconds.
    time_limit = 10.0

    def __init__(self) -> None:
        self._builder: DynamicShareabilityGraphBuilder | None = None
        self.grouping_stats = GroupingStatistics()
        self.ilp_solved = 0
        self.ilp_fallbacks = 0
        self._last_variable_count = 0

    def reset(self) -> None:
        self._builder = None
        self.grouping_stats = GroupingStatistics()
        self.ilp_solved = 0
        self.ilp_fallbacks = 0
        self._last_variable_count = 0

    def estimated_memory_bytes(self) -> int:
        # The ILP constraint matrix dominates RTV's memory in the paper.
        total = 900 * self._last_variable_count
        if self._builder is not None:
            total += self._builder.graph.estimated_memory_bytes()
        return total

    # ------------------------------------------------------------------ #
    def dispatch(self, context: DispatchContext) -> DispatchResult:
        builder = self._builder
        if builder is None:
            builder = self._builder = context.shareability_builder(angle_pruning=False)
        builder.sync(context.pending)
        graph = builder.graph

        # ----------------- enumerate feasible trips per vehicle ---------- #
        # RV edges: a vehicle only considers requests whose pick-up it can
        # plausibly reach before the waiting deadline.
        reachable = requests_by_vehicle(context, list(context.pending))
        candidates: list[tuple[int, RequestGroup]] = []
        routes = context.working_routes()
        for vehicle in context.vehicles:
            route = routes[vehicle.vehicle_id]
            if route.free_seats <= 0:
                continue
            pool = reachable.get(vehicle.vehicle_id, [])
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
            for group in groups:
                candidates.append((vehicle.vehicle_id, group))
        if not candidates:
            return DispatchResult()
        self._last_variable_count = len(candidates)

        penalty = context.config.penalty_coefficient
        if len(candidates) <= self.max_variables:
            request_ids = [request.request_id for request in context.pending]
            chosen = self._solve_ilp(candidates, request_ids, penalty)
            if chosen is None:
                self.ilp_fallbacks += 1
                chosen = self._solve_greedy(candidates)
            else:
                self.ilp_solved += 1
        else:
            self.ilp_fallbacks += 1
            chosen = self._solve_greedy(candidates)

        assignments = [
            Assignment(
                vehicle_id=vehicle_id,
                schedule=group.schedule,
                new_requests=tuple(group.requests),
            )
            for vehicle_id, group in chosen
        ]
        for _, group in chosen:
            builder.remove(group.members)
        return DispatchResult(assignments=assignments)

    # ------------------------------------------------------------------ #
    def _solve_ilp(
        self,
        candidates: list[tuple[int, RequestGroup]],
        request_ids: list[int],
        penalty: float,
    ) -> list[tuple[int, RequestGroup]] | None:
        """Exact trip selection with scipy's MILP interface (HiGHS)."""
        num_vars = len(candidates)
        vehicle_ids = sorted({vid for vid, _ in candidates})
        vehicle_row = {vid: i for i, vid in enumerate(vehicle_ids)}
        request_row = {rid: i for i, rid in enumerate(request_ids)}

        # Objective: minimise added travel cost minus the avoided penalties.
        objective = np.empty(num_vars)
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for index, (vehicle_id, group) in enumerate(candidates):
            saved_penalty = penalty * group.direct_cost
            objective[index] = group.delta_cost - saved_penalty
            rows.append(vehicle_row[vehicle_id])
            cols.append(index)
            data.append(1.0)
            for rid in group.members:
                rows.append(len(vehicle_ids) + request_row[rid])
                cols.append(index)
                data.append(1.0)
        num_rows = len(vehicle_ids) + len(request_ids)
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(num_rows, num_vars))
        constraints = optimize.LinearConstraint(matrix, -np.inf, np.ones(num_rows))
        integrality = np.ones(num_vars)
        bounds = optimize.Bounds(0, 1)
        try:
            result = optimize.milp(
                c=objective,
                constraints=constraints,
                integrality=integrality,
                bounds=bounds,
                options={"time_limit": self.time_limit, "presolve": True},
            )
        except Exception:  # pragma: no cover  # repro-lint: disable=STY001 scipy.optimize.milp raises version-dependent types; any failure falls back to greedy rounding
            return None
        if not result.success or result.x is None:
            return None
        chosen = [
            candidates[index]
            for index, value in enumerate(result.x)
            if value > 0.5
        ]
        return chosen

    def _solve_greedy(
        self, candidates: list[tuple[int, RequestGroup]]
    ) -> list[tuple[int, RequestGroup]]:
        """Greedy rounding fallback: best cost-per-request trips first."""
        scored = sorted(
            candidates,
            key=lambda item: (item[1].delta_cost - item[1].direct_cost) / item[1].size,
        )
        used_vehicles: set[int] = set()
        used_requests: set[int] = set()
        chosen: list[tuple[int, RequestGroup]] = []
        for vehicle_id, group in scored:
            if vehicle_id in used_vehicles:
                continue
            if group.members & used_requests:
                continue
            chosen.append((vehicle_id, group))
            used_vehicles.add(vehicle_id)
            used_requests |= group.members
        return chosen
