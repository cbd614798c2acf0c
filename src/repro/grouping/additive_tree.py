"""The modified additive tree (Algorithm 2 of the paper).

Groups are enumerated level by level.  Level 1 contains every request that
the target vehicle can serve on top of its current schedule; level ``l``
merges pairs of level-``l-1`` groups whose union has exactly ``l`` members
and forms a clique in the shareability graph (Lemma IV.1).  Each group keeps
one schedule, obtained by inserting the member with the highest shareability
into the schedule of the parent group that excludes it -- the
shareability-ordered linear insertion of Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from ..insertion.linear_insertion import best_insertion, base_route_cost
from ..model.request import Request
from ..model.vehicle import RouteState
from ..network.shortest_path import DistanceOracle
from ..shareability.graph import ShareabilityGraph
from .group import RequestGroup


@dataclass
class GroupingStatistics:
    """Counters describing the work performed by one grouping run."""

    groups_generated: int = 0
    merges_attempted: int = 0
    pruned_infeasible: int = 0


def build_groups(
    requests: Sequence[Request],
    graph: ShareabilityGraph,
    route: RouteState,
    oracle: DistanceOracle,
    *,
    max_group_size: int,
    stats: GroupingStatistics | None = None,
) -> list[RequestGroup]:
    """Enumerate feasible request groups for one vehicle (Algorithm 2).

    Parameters
    ----------
    requests:
        Candidate requests (for SARD these are the requests that proposed to
        the vehicle; for GAS the whole batch).
    graph:
        Shareability graph used for the clique pruning rule and for the
        degree ("shareability") ordering of insertions.  Requests missing
        from the graph are treated as isolated nodes (degree 0, no clique
        partners), so they can only appear in singleton groups.
    route:
        The vehicle's current route state; every group's schedule extends it.
    oracle:
        Shortest-path oracle for insertion feasibility.
    max_group_size:
        Largest group size to enumerate (at most the remaining seats matter,
        but the capacity constraint is enforced by the insertion itself).

    Returns
    -------
    list[RequestGroup]
        All feasible groups of size 1 to ``max_group_size``, each carrying a
        feasible schedule extending the vehicle's current one.
    """
    stats = stats if stats is not None else GroupingStatistics()
    base_cost = base_route_cost(route, oracle)

    def degree(request_id: int) -> int:
        return graph.degree(request_id) if request_id in graph else 0

    # -- level 1: singleton groups ------------------------------------- #
    levels: list[dict[frozenset[int], RequestGroup]] = []
    singletons: dict[frozenset[int], RequestGroup] = {}
    unique_requests: dict[int, Request] = {r.request_id: r for r in requests}
    for request in unique_requests.values():
        outcome = best_insertion(route, request, oracle)
        if not outcome.feasible:
            stats.pruned_infeasible += 1
            continue
        group = RequestGroup(
            members=frozenset({request.request_id}),
            requests=(request,),
            schedule=outcome.schedule,
            delta_cost=outcome.delta_cost,
            total_cost=base_cost + outcome.delta_cost,
        )
        singletons[group.members] = group
        stats.groups_generated += 1
    levels.append(singletons)

    # -- levels 2..c: merge pairs of parents --------------------------- #
    for level in range(2, max_group_size + 1):
        previous = levels[-1]
        current: dict[frozenset[int], RequestGroup] = {}
        parents = list(previous.values())
        for i, left in enumerate(parents):
            for right in parents[i + 1:]:
                union = left.members | right.members
                if len(union) != level:
                    continue
                if union in current:
                    continue
                stats.merges_attempted += 1
                if not graph.is_clique(union):
                    continue
                # Insert the member with the highest shareability into the
                # schedule of the parent group that excludes it.
                newcomer_id = max(union, key=lambda rid: (degree(rid), rid))
                parent_key = frozenset(union - {newcomer_id})
                parent = previous.get(parent_key)
                if parent is None:
                    # Lemma IV.1(a): every (l-1)-subset must be valid.
                    stats.pruned_infeasible += 1
                    continue
                newcomer = unique_requests.get(newcomer_id)
                if newcomer is None:
                    continue
                parent_route = replace(route, schedule=parent.schedule)
                outcome = best_insertion(parent_route, newcomer, oracle)
                if not outcome.feasible:
                    stats.pruned_infeasible += 1
                    continue
                members = frozenset(union)
                group = RequestGroup(
                    members=members,
                    requests=tuple(unique_requests[rid] for rid in sorted(members)),
                    schedule=outcome.schedule,
                    delta_cost=parent.delta_cost + outcome.delta_cost,
                    total_cost=parent.total_cost + outcome.delta_cost,
                )
                current[members] = group
                stats.groups_generated += 1
        if not current:
            break
        levels.append(current)

    groups: list[RequestGroup] = []
    for level in levels:
        groups.extend(level.values())
    return groups
