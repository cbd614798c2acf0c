"""Hub labels over a contraction hierarchy: one store, one join.

A node's forward (backward) label is its CH upward search space.  By the CH
cover property the minimum of ``d_f(h) + d_b(h)`` over the hubs ``h`` two
labels share is the shortest-path distance, so a ``cost(u, v)`` query is a
join.  :class:`HubLabeling` is the store of both preprocessed backends.  The
one every ``hub_label`` oracle over a network shares holds every label from
set-up on (the paper's setup), computed for a block of sources at a time by
one min-plus pass per direction over the upward adjacency in contraction
order (:func:`_complete_labels`).  ``ch``'s private store sweeps a label
(:class:`~repro.network.routing.contraction.UpwardSweep`) only as far as its
joins need, with the stopping rule of the stall-on-demand CH query: advance
the lower frontier while a frontier is below the best meeting distance, then
pause.  An unreached hub lies at least a frontier away and cannot beat the
answer, so the distance is the full-label join's bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, islice

import numpy as np

from .contraction import ContractionHierarchy, UpwardSweep

#: Sources per block of the eager store's passes: the distance block is
#: ``n`` x this many floats (0.7 MiB on the 676-node city, 2.8 on 2,704).
SOURCE_BLOCK = 128


class HubLabeling:
    """Per-node forward / backward labels and the join that answers a pair."""

    __slots__ = ("hierarchy", "forward", "backward", "paused", "_dist")

    def __init__(self, hierarchy: ContractionHierarchy, *, eager: bool) -> None:
        """An empty store over ``hierarchy``; ``eager`` labels every node now."""
        self.hierarchy = hierarchy
        n = hierarchy.csr.num_nodes
        #: ``forward[i]`` -- ``{hub index: distance}``, ``None`` until swept.
        self.forward: list[dict[int, float] | None] = [None] * n
        self.backward: list[dict[int, float] | None] = [None] * n
        if eager:
            self.forward = _complete_labels(hierarchy, backward=False)
            self.backward = _complete_labels(hierarchy, backward=True)
        #: Sweeps begun and not finished, forward then backward, by node.
        self.paused: tuple[dict[int, UpwardSweep], dict[int, UpwardSweep]] = ({}, {})
        #: Flat tentative-distance scratch per direction, ``inf`` between calls.
        self._dist = ([math.inf] * n, [math.inf] * n)

    def query(self, source_index: int, target_index: int) -> tuple[float, int]:
        """``(distance, settled)`` of one pair of dense indices; ``settled``
        counts the label entries walked plus those the call's sweeps added."""
        forward = self.forward[source_index]
        if forward is None:
            forward = self._begin(source_index, False)
        backward = self.backward[target_index]
        if backward is None:
            backward = self._begin(target_index, True)
        # Walk the smaller label, probe the larger.
        walk, other = (backward, forward) if len(backward) < len(forward) else (forward, backward)
        probe = other.get
        best = math.inf
        for hub, near in walk.items():
            far = probe(hub)
            if far is not None and near + far < best:
                best = near + far
        paused = self.paused
        if not (paused[0] or paused[1]):  # an eager store never pauses
            return best, len(walk)
        ahead, behind = paused[0].get(source_index), paused[1].get(target_index)
        if (ahead is None or ahead.floor >= best) and (behind is None or behind.floor >= best):
            return best, len(walk)
        sweeps = [ahead, behind]
        ends, labels = (source_index, target_index), (forward, backward)
        before = len(forward) + len(backward)
        # Advance the lower frontier while one is below ``best`` (a finished
        # direction has none) until it passes twice the other, resuming a
        # sweep once and pausing it after.
        resumed = [False, False]
        while True:
            floors = [math.inf if sweep is None else sweep.floor for sweep in sweeps]
            side = 0 if floors[0] <= floors[1] else 1
            sweep = sweeps[side]
            if sweep is None or floors[side] >= best:
                break
            if not resumed[side]:
                sweep.resume(self._dist[side])
                resumed[side] = True
            best = sweep.advance(self._dist[side], labels[1 - side], best, 2 * floors[1 - side])
        for side, sweep in enumerate(sweeps):
            if sweep is not None and resumed[side]:
                sweep.pause(self._dist[side])
                if math.isinf(sweep.floor):
                    del paused[side][ends[side]]
        return best, len(walk) + len(forward) + len(backward) - before

    def _begin(self, index: int, backward: bool) -> dict[int, float]:
        """Start the sweep from ``index`` (it settles nothing yet)."""
        sweep = self.paused[backward][index] = UpwardSweep(self.hierarchy, index, backward=backward)
        (self.backward if backward else self.forward)[index] = sweep.label
        return sweep.label

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the labels held so far and the paused sweeps."""
        swept = [label for label in (*self.forward, *self.backward) if label is not None]
        paused = [sweep for held in self.paused for sweep in held.values()]
        # A dict slot and a float per entry, a dict header per label; a
        # list slot, a tuple and a float per paused frontier entry.
        entries = sum(map(len, swept)) + sum(len(sweep.stalled) for sweep in paused)
        return 72 * entries + 64 * len(swept) + 88 * sum(len(s.heap) for s in paused)


def _complete_labels(
    hierarchy: ContractionHierarchy, *, backward: bool
) -> list[dict[int, float] | None]:
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
    labels: list[dict[int, float] | None] = [None] * n
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
    return labels


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
