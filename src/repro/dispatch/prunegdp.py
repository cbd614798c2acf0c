"""pruneGDP: online greedy linear insertion (Tong et al. [37]).

Requests are processed one at a time in release order; each is inserted into
the candidate vehicle whose schedule grows the least (smallest additional
travel cost).  The operator is extremely fast -- it is the running-time
baseline in every figure of the paper -- but purely local: it never revisits
an earlier decision, which is what the batch methods exploit.
"""

from __future__ import annotations

from .base import DispatchContext, DispatchResult, Dispatcher, cheapest_insertion


def insert_greedily(
    context: DispatchContext, *, max_candidates: int | None, reject_unassigned: bool
) -> DispatchResult:
    """Insert each pending request, in release order, into its cheapest
    feasible vehicle; one that fits nowhere is rejected or left pending."""
    # Insertions within the batch compound on the working routes, so a
    # vehicle can pick up several new requests.
    routes = context.working_routes()
    rejected = []
    for request in sorted(context.pending, key=lambda r: (r.release_time, r.request_id)):
        best = cheapest_insertion(request, context, routes, max_candidates)
        if best is not None:
            outcome, vehicle_id = best
            routes.extend(vehicle_id, outcome.schedule, (request,))
        elif reject_unassigned:
            rejected.append(request)
    return DispatchResult(assignments=routes.assignments(), rejected=rejected)


class PruneGDPDispatcher(Dispatcher):
    """Greedy insertion of each request into its cheapest feasible vehicle.

    Being an *online* method, pruneGDP answers each request immediately and
    irrevocably: a request that cannot be inserted anywhere when it is
    processed is rejected (``reject_unassigned=True``, the paper's
    first-come-first-served semantics).  Batch methods instead keep such
    requests in the working pool until they expire, which is what the
    resilience ladder's degraded rung asks for, over fewer candidates.
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
        self._fleet_size = len(context.vehicles)
        return insert_greedily(
            context,
            max_candidates=self._max_candidates,
            reject_unassigned=self._reject_unassigned,
        )
