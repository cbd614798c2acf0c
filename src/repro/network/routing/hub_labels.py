"""Hub labels over a contraction hierarchy: one store, one join.

A node's forward (backward) label is its CH upward search space.  By the CH
cover property the minimum of ``d_f(h) + d_b(h)`` over the hubs ``h`` two
labels share is the shortest-path distance, so a ``cost(u, v)`` query is a
join.  :class:`HubLabeling` is the one store of both preprocessed backends,
shared by every oracle over a network: it holds every label from set-up on
(the paper's setup), computed for a block of sources at a time by one
min-plus pass per direction over the upward adjacency in contraction order
(:func:`_complete_labels`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, islice

import numpy as np

from .contraction import ContractionHierarchy

#: Sources per block of the label passes: the distance block is ``n`` x
#: this many floats (0.7 MiB on the 676-node city, 2.8 on 2,704).
SOURCE_BLOCK = 128


class HubLabeling:
    """Per-node forward / backward labels and the join that answers a pair."""

    __slots__ = ("hierarchy", "forward", "backward")

    def __init__(self, hierarchy: ContractionHierarchy) -> None:
        """Label every node of ``hierarchy``, both directions."""
        self.hierarchy = hierarchy
        #: ``forward[i]`` -- ``{hub index: distance}``.
        self.forward = _complete_labels(hierarchy, backward=False)
        self.backward = _complete_labels(hierarchy, backward=True)

    def query(self, source_index: int, target_index: int) -> tuple[float, int]:
        """``(distance, settled)`` of one pair of dense indices; ``settled``
        counts the label entries walked."""
        forward, backward = self.forward[source_index], self.backward[target_index]
        # Walk the smaller label, probe the larger.
        walk, other = (backward, forward) if len(backward) < len(forward) else (forward, backward)
        probe = other.get
        best = math.inf
        for hub, near in walk.items():
            far = probe(hub)
            if far is not None and near + far < best:
                best = near + far
        return best, len(walk)

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the labels: a dict slot and a float per entry,
        a dict header per label."""
        labels = (*self.forward, *self.backward)
        return 72 * sum(map(len, labels)) + 64 * len(labels)


def _complete_labels(
    hierarchy: ContractionHierarchy, *, backward: bool
) -> list[dict[int, float]]:
    """Every node's label in one direction: per block of sources of
    consecutive ranks, ``dist[x] = min(dist[p] + w)`` over the upward edges
    ``p -> x`` a level at a time, then the stall test on final distances
    (DESIGN.md, "CH searches").  Rows go level by level, within a level by
    the highest rank among their tails, so a block's pass over a level stops
    at the first row whose tails all rank below the block's sources.
    """
    up, down = hierarchy._stored_fwd, hierarchy._stored_bwd
    relax, stall = (down, up) if backward else (up, down)
    rank, order, n = hierarchy.rank, hierarchy._contract_order, len(relax)
    into: list[dict[int, float]] = [{} for _ in range(n)]
    for tail, heads in enumerate(relax):
        for head, w in heads.items():
            into[head][tail] = w
    reach = [max(map(rank.__getitem__, edges), default=-1) for edges in into]
    depth = [0] * n
    levels: list[list[int]] = [[] for _ in range(n)]
    for node in order:
        depth[node] = 1 + max(map(depth.__getitem__, into[node]), default=-1)
        levels[depth[node]].append(node)
    levels = [sorted(nodes, key=reach.__getitem__, reverse=True) for nodes in levels if nodes]
    node_of = [node for nodes in levels for node in nodes]
    row_of = dict(zip(node_of, range(n)))
    steps = []  # per level past the first: its first row, -reach per row, both passes
    for lo, nodes in zip(accumulate(map(len, levels)), levels[1:]):
        passes = _padded(nodes, into, row_of), _padded(nodes, stall, row_of)
        steps.append((lo, [-reach[node] for node in nodes], passes))
    largest = max((rows.size for *_, passes in steps for rows, _ in passes), default=0)
    scratch = np.empty(largest * SOURCE_BLOCK)
    labels: dict[int, dict[int, float]] = {}
    for first in range(0, n, SOURCE_BLOCK):
        sources = order[first : first + SOURCE_BLOCK]
        at = (np.array([row_of[node] for node in sources]), np.arange(len(sources)))
        dist = np.full((n + 1, len(sources)), np.inf)  # row ``n`` stays ``inf``
        dist[at] = 0.0
        live = [(lo, bisect_right(bound, -first), passes) for lo, bound, passes in steps]
        for lo, count, ((rows, weights), _) in live:
            if count:
                _least(dist, rows[:count], weights[:count], scratch, out=dist[lo : lo + count])
                dist[at] = 0.0  # a source's own row: its tails never reach it
        kept = dist[:n] < np.inf
        for lo, count, (_, (rows, weights)) in live:
            if count:
                near = _least(dist, rows[:count], weights[:count], scratch)
                kept[lo : lo + count] &= near >= dist[lo : lo + count]
        columns, reached = np.nonzero(kept.T)
        entries = zip(map(node_of.__getitem__, reached.tolist()), dist[reached, columns].tolist())
        counts = np.bincount(columns, minlength=len(sources)).tolist()
        del dist, kept  # the block goes before the labels come
        for source, count in zip(sources, counts):
            labels[source] = dict(islice(entries, count))
    return [labels[node] for node in range(n)]


def _padded(
    nodes: list[int], edges: list[dict[int, float]], row_of: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the rows and weights of ``edges[node]``, padded to the
    longest with row ``len(row_of)`` (always ``inf``) at weight 0."""
    width = max(1, *(len(edges[x]) for x in nodes))
    rows = [[row_of[t] for t in edges[x]] + [len(row_of)] * (width - len(edges[x])) for x in nodes]
    weights = [[*edges[x].values()] + [0.0] * (width - len(edges[x])) for x in nodes]
    return np.array(rows, dtype=np.intp), np.array(weights)[:, :, None]


def _least(
    dist: np.ndarray, rows: np.ndarray, weights: np.ndarray, scratch: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per row of ``rows``, per source: the least ``dist[row] + weight``."""
    sums = scratch[: rows.size * dist.shape[1]].reshape(*rows.shape, dist.shape[1])
    np.take(dist, rows, axis=0, out=sums)
    return np.minimum.reduce(np.add(sums, weights, out=sums), axis=1, out=out)
