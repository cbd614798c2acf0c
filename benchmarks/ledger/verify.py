"""Independent checker for a finished replay.

Everything here is recomputed from what the service handed back -- the
streamed assignment events, the final stats and the fleet -- never from the
program's own bookkeeping of the same fact.  Each check returns failure
messages; an empty list means the run is correct.
"""

from __future__ import annotations

import math
from collections import Counter

from repro import AssignmentEventKind, RejectionReason, ServiceResult

from replay import assigned_pairs

#: Reasons the service gives for refusing a request at the door; every other
#: rejection happens to a request that had been accepted first.
REFUSED_AT_ADMISSION = (
    RejectionReason.QUEUE_FULL,
    RejectionReason.DUPLICATE_REQUEST,
    RejectionReason.UNKNOWN_NODE,
    RejectionReason.SHUTTING_DOWN,
)
#: Drop-off may trail the deadline by float noise only.
DEADLINE_SLACK = 1e-6


class CapacityWatch:
    """Per-tick hook: no vehicle ever carries more riders than it seats."""

    def __init__(self, vehicles: list) -> None:
        self._vehicles = vehicles
        self.failures: list[str] = []

    def __call__(self) -> None:
        for vehicle in self._vehicles:
            if vehicle.onboard > vehicle.capacity:
                self.failures.append(
                    f"vehicle {vehicle.vehicle_id} carries {vehicle.onboard} "
                    f"riders on {vehicle.capacity} seats"
                )


def check_replay(
    trace: list,
    result: ServiceResult,
    vehicles: list,
    *,
    reference_pairs: list[tuple[int, int]] | None,
    static_world: bool,
) -> tuple[list[str], int]:
    """Check one replay; returns ``(failures, requests without an answer)``.

    ``reference_pairs`` are the batch ``Simulator.run`` assignments over the
    same trace (static worlds only: there the service must reproduce them).
    Deadlines are only binding in a static world -- a traffic wave that
    arrives after the assignment slows a trip that was feasible when it was
    planned, and the program does not re-plan.
    """
    failures: list[str] = []
    stats = result.stats
    if stats.events_dropped:
        return [f"{stats.events_dropped} events dropped: history too small"], 0
    requests = {request.request_id: request for request in trace}
    by_kind: dict[AssignmentEventKind, list] = {kind: [] for kind in AssignmentEventKind}
    for event in result.events:
        by_kind[event.event].append(event)

    pairs = assigned_pairs(result)
    if reference_pairs is not None and sorted(pairs) != sorted(reference_pairs):
        failures.append(
            f"replay assigned {len(pairs)} pairs that differ from the batch "
            f"run's {len(reference_pairs)}"
        )
    assigned = Counter(request_id for request_id, _ in pairs)
    failures += [
        f"request {request_id} assigned {count} times"
        for request_id, count in assigned.items()
        if count > 1
    ]

    completed = Counter(e.request_id for e in by_kind[AssignmentEventKind.COMPLETED])
    failures += [
        f"request {request_id} completed {completed[request_id]} times"
        for request_id in assigned.keys() | completed.keys()
        if completed[request_id] != (request_id in assigned)
    ]
    if static_world:
        failures += [
            f"request {e.request_id} dropped off at {e.time}, deadline "
            f"{requests[e.request_id].deadline}"
            for e in by_kind[AssignmentEventKind.COMPLETED]
            if e.time > requests[e.request_id].deadline + DEADLINE_SLACK
        ]

    rejected = by_kind[AssignmentEventKind.REJECTED]
    refused = sum(e.reason in REFUSED_AT_ADMISSION for e in rejected)
    dropped_after_accept = len(rejected) - refused
    expired = len(by_kind[AssignmentEventKind.EXPIRED])
    cancelled = len(by_kind[AssignmentEventKind.CANCELLED])
    if stats.received != len(trace) or stats.received != stats.accepted + refused:
        failures.append(
            f"received {stats.received} of {len(trace)} != accepted "
            f"{stats.accepted} + refused {refused}"
        )
    if stats.accepted != len(assigned) + expired + dropped_after_accept + cancelled:
        failures.append(
            f"accepted {stats.accepted} != assigned {len(assigned)} + expired "
            f"{expired} + rejected {dropped_after_accept} + cancelled {cancelled}"
        )
    if stats.assigned != len(assigned):
        failures.append(f"stats.assigned {stats.assigned} != {len(assigned)} events")

    answers = Counter(
        e.request_id
        for kind in (
            AssignmentEventKind.ASSIGNED, AssignmentEventKind.REJECTED,
            AssignmentEventKind.EXPIRED, AssignmentEventKind.CANCELLED,
        )
        for e in by_kind[kind]
    )
    unanswered = [rid for rid in requests if answers[rid] != 1]
    if unanswered:
        failures.append(
            f"{len(unanswered)} requests without exactly one answer, "
            f"e.g. {unanswered[:5]}"
        )

    # Equation 3 from the fleet and the requests the simulator gave up on
    # (shed and refused requests never reached it, so carry no penalty).
    config = result.simulation.config
    unserved = [
        requests[e.request_id]
        for e in rejected + by_kind[AssignmentEventKind.EXPIRED]
        if e.reason in (RejectionReason.DISPATCH_REJECTED, RejectionReason.EXPIRED)
    ]
    recomputed = config.alpha * sum(
        vehicle.total_travel_time for vehicle in vehicles
    ) + config.penalty_coefficient * sum(r.direct_cost for r in unserved)
    if not math.isclose(recomputed, result.unified_cost, rel_tol=1e-9):
        failures.append(
            f"unified cost {result.unified_cost} != recomputed {recomputed}"
        )
    return failures, len(unanswered)


def check_consistent(passes: dict[str, dict]) -> list[str]:
    """Each pass agrees with the next on every exact value they both report.

    (The batch pass reports fewer values than a replay, so passes are chained
    rather than all held against the first.)
    """
    failures = []
    names = list(passes)
    for name, successor in zip(names, names[1:]):
        first, second = passes[name], passes[successor]
        for key in sorted(first.keys() & second.keys()):
            x, y = first[key], second[key]
            same = (
                math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                if isinstance(x, float)
                else x == y
            )
            if not same:
                failures.append(f"{key}: {name} gave {x}, {successor} gave {y}")
    return failures
