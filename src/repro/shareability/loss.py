"""Shareability loss (Definition 6).

When a vehicle accepts a group ``G`` of requests, those requests leave the
shareability graph as individual nodes and are replaced by a single
*supernode*.  The supernode keeps an edge to an outside node only when that
node was adjacent to *every* member of ``G``.  The shareability loss measures
how many sharing opportunities the substitution destroys; SARD's acceptance
phase picks the group with the smallest loss (Theorem IV.1).

Two variants are provided:

* :func:`shareability_loss` -- the literal arithmetic of Definition 6 /
  Example 3, where ``N(v)`` is the full neighbourhood of ``v`` (group members
  included).
* :func:`residual_shareability_loss` -- the same expression evaluated on the
  neighbourhoods restricted to nodes *outside* the group.  This measures the
  loss suffered by the remaining (still unassigned) requests only, which is
  the quantity Theorem IV.1 argues about and the one that drives the group
  selection in Example 4; SARD uses it for acceptance.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..exceptions import ReproError
from .graph import ShareabilityGraph


def _validated_members(graph: ShareabilityGraph, group: Sequence[int]) -> list[int]:
    members = list(dict.fromkeys(group))
    if not members:
        raise ReproError("shareability loss of an empty group is undefined")
    for rid in members:
        if rid not in graph:
            raise ReproError(f"request {rid} is not a node of the shareability graph")
    return members


def _loss_from_neighbourhoods(
    members: list[int], neighbourhoods: dict[int, set[int]]
) -> float:
    """Evaluate Equation 5 given the (possibly restricted) neighbourhoods."""
    full_intersection: set[int] | None = None
    for rid in members:
        neighbours = neighbourhoods[rid]
        full_intersection = (
            set(neighbours) if full_intersection is None else full_intersection & neighbours
        )
    assert full_intersection is not None
    worst = -float("inf")
    for rid in members:
        others = [other for other in members if other != rid]
        partial: set[int] | None = None
        for other in others:
            neighbours = neighbourhoods[other]
            partial = set(neighbours) if partial is None else partial & neighbours
        partial = partial if partial is not None else set()
        loss = len(partial) + len(neighbourhoods[rid]) - len(full_intersection) - 1
        worst = max(worst, loss)
    return float(worst)


def shareability_loss(graph: ShareabilityGraph, group: Sequence[int]) -> float:
    """Shareability loss of substituting a supernode for ``group``.

    Implements Equation 5 of the paper::

        SLoss(G) = max_{r in G} ( |Intersection_{v in G - {r}} N(v)|
                                  + |N(r)| - |Intersection_{v in G} N(v)| - 1 )

    with the convention ``SLoss({r}) = deg(r)`` for singleton groups.  The
    neighbourhoods are the full adjacency sets, matching the arithmetic of
    Example 3 in the paper.
    """
    members = _validated_members(graph, group)
    if len(members) == 1:
        return float(graph.degree(members[0]))
    neighbourhoods = {rid: graph.neighbors(rid) for rid in members}
    return _loss_from_neighbourhoods(members, neighbourhoods)


def residual_shareability_loss(graph: ShareabilityGraph, group: Sequence[int]) -> float:
    """Shareability loss restricted to the requests left behind.

    Same expression as :func:`shareability_loss` but every neighbourhood is
    intersected with the complement of the group first, so the value counts
    only sharing opportunities destroyed *among the remaining requests*.
    Larger, more cohesive groups therefore score lower, which is the signal
    SARD's acceptance phase uses to prefer serving cliques together
    (Theorem IV.1, Example 4).  Singletons still score their outside degree.
    """
    members = _validated_members(graph, group)
    member_set = set(members)
    if len(members) == 1:
        return float(len(graph.neighbors(members[0]) - member_set))
    neighbourhoods = {rid: graph.neighbors(rid) - member_set for rid in members}
    return _loss_from_neighbourhoods(members, neighbourhoods)


def sharing_ratio(graph: ShareabilityGraph, group: Sequence[int], total_cost: float) -> float:
    """Tie-breaking score used by SARD's acceptance phase (Example 4).

    When two groups have the same shareability loss, the vehicle prefers the
    group whose planned travel cost is smaller relative to the sum of its
    members' direct trips: a lower ratio means more of the trip is genuinely
    shared.
    """
    members = list(dict.fromkeys(group))
    direct = sum(graph.request(rid).direct_cost for rid in members)
    if direct <= 0:
        return 0.0
    return total_cost / direct
