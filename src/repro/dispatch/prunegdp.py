"""pruneGDP: online greedy linear insertion (Tong et al. [37]).

Requests are processed one at a time in release order; each is inserted into
the candidate vehicle whose schedule grows the least (smallest additional
travel cost).  The operator is extremely fast -- it is the running-time
baseline in every figure of the paper -- but purely local: it never revisits
an earlier decision, which is what the batch methods exploit.
"""

from __future__ import annotations

from dataclasses import replace

from ..insertion.linear_insertion import best_insertion
from ..model.request import Request
from .base import Assignment, DispatchContext, DispatchResult, Dispatcher, candidate_vehicles


class PruneGDPDispatcher(Dispatcher):
    """Greedy insertion of each request into its cheapest feasible vehicle.

    Being an *online* method, pruneGDP answers each request immediately and
    irrevocably: a request that cannot be inserted anywhere when it is
    processed is rejected (``reject_unassigned=True``, the paper's
    first-come-first-served semantics).  Batch methods instead keep such
    requests in the working pool until they expire.
    """

    name = "pruneGDP"

    def __init__(
        self, *, max_candidates: int | None = 32, reject_unassigned: bool = True
    ) -> None:
        self._max_candidates = max_candidates
        self._reject_unassigned = reject_unassigned
        self._fleet_size = 0

    def reset(self) -> None:
        self._fleet_size = 0

    def estimated_memory_bytes(self) -> int:
        # Online methods keep almost nothing between requests.
        return 100 * self._fleet_size

    def dispatch(self, context: DispatchContext) -> DispatchResult:
        # Working copies of each vehicle's route; insertions within the batch
        # compound on these so a vehicle can pick up several new requests.
        routes = context.working_routes()
        accepted: dict[int, list[Request]] = {}
        rejected: list[Request] = []
        for request in sorted(context.pending, key=lambda r: (r.release_time, r.request_id)):
            best_vehicle_id = None
            best_outcome = None
            for vehicle in candidate_vehicles(
                request, context, max_candidates=self._max_candidates
            ):
                route = routes[vehicle.vehicle_id]
                outcome = best_insertion(route, request, context.oracle)
                if not outcome.feasible:
                    continue
                if best_outcome is None or outcome.delta_cost < best_outcome.delta_cost:
                    best_outcome = outcome
                    best_vehicle_id = vehicle.vehicle_id
            if best_vehicle_id is None or best_outcome is None:
                if self._reject_unassigned:
                    rejected.append(request)
                continue
            routes[best_vehicle_id] = replace(routes[best_vehicle_id], schedule=best_outcome.schedule)
            accepted.setdefault(best_vehicle_id, []).append(request)
        self._fleet_size = len(context.vehicles)
        assignments = [
            Assignment(
                vehicle_id=vehicle_id,
                schedule=routes[vehicle_id].schedule,
                new_requests=tuple(requests),
            )
            for vehicle_id, requests in accepted.items()
        ]
        return DispatchResult(assignments=assignments, rejected=rejected)
