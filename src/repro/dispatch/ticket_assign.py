"""TicketAssign+: simulated parallel search with per-vehicle ticket locks.

Pan & Li [54] parallelise insertion-based dispatch by letting many workers
search concurrently and serialising conflicting updates with a ticket lock on
each vehicle.  Without real threads the same decision process is reproduced
round by round: in every round each unassigned request picks its best vehicle
*based on the schedules visible at the start of the round*; when several
requests pick the same vehicle only the cheapest one acquires the ticket and
the others retry against the updated state in the next round.  The number of
contention retries is recorded because it is what slows TicketAssign+ down
in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import replace

from ..insertion.linear_insertion import best_insertion
from ..model.request import Request
from .base import Assignment, DispatchContext, DispatchResult, Dispatcher, candidate_vehicles


class TicketAssignDispatcher(Dispatcher):
    """Round-based simulation of the ticket-locking parallel dispatcher."""

    name = "TicketAssign+"

    def __init__(
        self,
        *,
        max_candidates: int | None = 32,
        max_rounds: int = 50,
        reject_unassigned: bool = True,
    ) -> None:
        self._max_candidates = max_candidates
        self._max_rounds = max_rounds
        # Online semantics: requests that no worker could place are answered
        # with a rejection rather than retried in later batches.
        self._reject_unassigned = reject_unassigned
        self.contention_retries = 0

    def reset(self) -> None:
        self.contention_retries = 0

    def estimated_memory_bytes(self) -> int:
        # One lock record per vehicle plus per-request candidate scratch.
        return 150 * self.contention_retries + 2000

    def dispatch(self, context: DispatchContext) -> DispatchResult:
        routes = context.working_routes()
        accepted: dict[int, list[Request]] = {}
        remaining: dict[int, Request] = {
            request.request_id: request for request in context.pending
        }
        for _ in range(self._max_rounds):
            if not remaining:
                break
            # Each request evaluates candidates against the schedules frozen
            # at the start of the round (as concurrent workers would).
            bids: dict[int, list[tuple[float, Request, object]]] = {}
            for request in remaining.values():
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
                    continue
                bids.setdefault(best_vehicle_id, []).append(
                    (best_outcome.delta_cost, request, best_outcome)
                )
            if not bids:
                break
            progressed = False
            for vehicle_id, vehicle_bids in bids.items():
                vehicle_bids.sort(key=lambda item: (item[0], item[1].request_id))
                delta, request, outcome = vehicle_bids[0]
                # Losing bidders retry next round: that is the lock contention.
                self.contention_retries += len(vehicle_bids) - 1
                routes[vehicle_id] = replace(routes[vehicle_id], schedule=outcome.schedule)
                accepted.setdefault(vehicle_id, []).append(request)
                del remaining[request.request_id]
                progressed = True
            if not progressed:
                break
        assignments = [
            Assignment(
                vehicle_id=vehicle_id,
                schedule=routes[vehicle_id].schedule,
                new_requests=tuple(requests),
            )
            for vehicle_id, requests in accepted.items()
        ]
        rejected = list(remaining.values()) if self._reject_unassigned else []
        return DispatchResult(assignments=assignments, rejected=rejected)
