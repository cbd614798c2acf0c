"""Reference upward searches over a contraction hierarchy, for the tests.

The library labels every node in one rank-order pass per direction
(``hub_labels._complete_labels``).  Tests check those labels' joins against,
and pin the hierarchy by, labels computed the textbook way: one
stall-on-demand upward Dijkstra per node and direction
(:func:`upward_label`).  They check the labels themselves against what the
pass is specified to compute, one node at a time
(:func:`stall_tested_label`).
"""

from __future__ import annotations

import heapq
import math


def upward_label(hierarchy, index: int, *, backward: bool) -> dict[int, float]:
    """The complete label of ``index``: a Dijkstra over the upward adjacency
    that settles in ``(distance, node)`` order and leaves out (and does not
    relax) a node some higher-ranked node reaches more cheaply.  Entries are
    in settle order."""
    up, down = hierarchy._stored_fwd, hierarchy._stored_bwd
    relax, stall = (down, up) if backward else (up, down)
    inf = math.inf
    dist = {index: 0.0}
    heap = [(0.0, index)]
    label: dict[int, float] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue  # superseded entry; the first pop settles the node
        if any(dist.get(m, inf) + w < d for m, w in stall[node].items()):
            continue
        label[node] = d
        for succ, w in relax[node].items():
            if d + w < dist.get(succ, inf):
                dist[succ] = d + w
                heapq.heappush(heap, (d + w, succ))
    return label


def stall_tested_label(hierarchy, index: int, *, backward: bool) -> dict[int, float]:
    """What the one-pass labels hold for ``index``: the exact distance of
    every node the upward adjacency reaches (a Dijkstra that relaxes every
    settled node), less each node some higher-ranked node reaches more
    cheaply on those final distances."""
    up, down = hierarchy._stored_fwd, hierarchy._stored_bwd
    relax, stall = (down, up) if backward else (up, down)
    inf = math.inf
    dist = {index: 0.0}
    heap = [(0.0, index)]
    settled: set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for succ, w in relax[node].items():
            if d + w < dist.get(succ, inf):
                dist[succ] = d + w
                heapq.heappush(heap, (d + w, succ))
    return {
        node: d for node, d in dist.items()
        if not any(dist.get(m, inf) + w < d for m, w in stall[node].items())
    }
