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

from ..insertion.linear_insertion import InsertionOutcome
from ..model.request import Request
from .base import DispatchContext, DispatchResult, Dispatcher, cheapest_insertion


class TicketAssignDispatcher(Dispatcher):
    """Round-based simulation of the ticket-locking parallel dispatcher.

    Online semantics: requests that no worker could place are answered with
    a rejection rather than retried in later batches.
    """

    name = "TicketAssign+"
    #: Cap on the candidate vehicles each request evaluates.
    max_candidates = 32
    #: Bound on the retry rounds within one batch.
    max_rounds = 50

    def __init__(self) -> None:
        self.contention_retries = 0

    def reset(self) -> None:
        self.contention_retries = 0

    def estimated_memory_bytes(self) -> int:
        # One lock record per vehicle plus per-request candidate scratch.
        return 150 * self.contention_retries + 2000

    def dispatch(self, context: DispatchContext) -> DispatchResult:
        routes = context.working_routes()
        remaining: dict[int, Request] = {
            request.request_id: request for request in context.pending
        }
        for _ in range(self.max_rounds):
            # Each request evaluates candidates against the schedules frozen
            # at the start of the round (as concurrent workers would).
            bids: dict[int, list[tuple[float, int, InsertionOutcome]]] = {}
            for request in remaining.values():
                best = cheapest_insertion(request, context, routes, self.max_candidates)
                if best is not None:
                    outcome, vehicle_id = best
                    bids.setdefault(vehicle_id, []).append(
                        (outcome.delta_cost, request.request_id, outcome)
                    )
            if not bids:
                break
            for vehicle_id, vehicle_bids in bids.items():
                _, request_id, outcome = min(vehicle_bids, key=lambda bid: bid[:2])
                # Losing bidders retry next round: that is the lock contention.
                self.contention_retries += len(vehicle_bids) - 1
                routes.extend(vehicle_id, outcome.schedule, (remaining.pop(request_id),))
        return DispatchResult(
            assignments=routes.assignments(), rejected=list(remaining.values())
        )
