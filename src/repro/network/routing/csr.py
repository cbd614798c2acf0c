"""Compressed-sparse-row (CSR) view of a :class:`RoadNetwork`.

Every routing backend works on this compiled form instead of the builder's
nested dictionaries: node identifiers are mapped to dense indices once, and
the adjacency becomes three flat lists (``indptr`` / ``indices`` /
``weights``) in both the forward and the reverse direction.  Inner search
loops then index lists by integer position -- no hashing, no dict views --
which is what makes the pure-Python Dijkstra competitive and what the
contraction-hierarchy preprocessor compiles its own structures from.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator

from ...exceptions import NetworkError
from ..road_network import RoadNetwork


class CSRGraph:
    """Forward + reverse CSR adjacency compiled from a road network.

    Node identifiers are sorted and mapped to dense indices ``0 .. n-1``;
    :attr:`node_ids` maps an index back to the identifier and
    :attr:`index_of` the other way.  ``indptr[i] : indptr[i + 1]`` bounds the
    slice of ``indices`` / ``weights`` holding node *i*'s outgoing edges; the
    ``r``-prefixed triple stores the transposed (incoming) adjacency.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "indptr",
        "indices",
        "weights",
        "rindptr",
        "rindices",
        "rweights",
        "num_edges",
    )

    def __init__(
        self,
        node_ids: list[int],
        edges: Iterable[tuple[int, int, float]],
    ) -> None:
        self.node_ids = list(node_ids)
        self.index_of = {node: index for index, node in enumerate(self.node_ids)}
        n = len(self.node_ids)
        edge_list = [
            (self.index_of[u], self.index_of[v], float(w)) for u, v, w in edges
        ]
        self.num_edges = len(edge_list)
        self.indptr, self.indices, self.weights = self._compile(
            n, edge_list, transpose=False
        )
        self.rindptr, self.rindices, self.rweights = self._compile(
            n, edge_list, transpose=True
        )

    @staticmethod
    def _compile(
        n: int, edge_list: list[tuple[int, int, float]], *, transpose: bool
    ) -> tuple[list[int], list[int], list[float]]:
        counts = [0] * (n + 1)
        for u, v, _ in edge_list:
            counts[(v if transpose else u) + 1] += 1
        for i in range(n):
            counts[i + 1] += counts[i]
        indptr = list(counts)
        indices = [0] * len(edge_list)
        weights = [0.0] * len(edge_list)
        cursor = list(indptr[:-1])
        for u, v, w in edge_list:
            head, tail = (v, u) if transpose else (u, v)
            slot = cursor[head]
            indices[slot] = tail
            weights[slot] = w
            cursor[head] = slot + 1
        return indptr, indices, weights

    # ------------------------------------------------------------------ #
    @classmethod
    def from_network(cls, network: RoadNetwork) -> "CSRGraph":
        """Compile the forward and reverse adjacency of ``network``."""
        return cls(sorted(network.nodes()), network.edges())

    @property
    def num_nodes(self) -> int:
        """Number of nodes (dense indices run ``0 .. num_nodes - 1``)."""
        return len(self.node_ids)

    def out_edges(self, index: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(successor_index, weight)`` pairs of node ``index``."""
        for e in range(self.indptr[index], self.indptr[index + 1]):
            yield self.indices[e], self.weights[e]

    def in_edges(self, index: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(predecessor_index, weight)`` pairs of node ``index``."""
        for e in range(self.rindptr[index], self.rindptr[index + 1]):
            yield self.rindices[e], self.rweights[e]

    def require_index(self, node: int) -> int:
        """Dense index of a node identifier (raises on unknown nodes)."""
        try:
            return self.index_of[node]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node}") from exc

    # ------------------------------------------------------------------ #
    def sssp(
        self,
        source_index: int,
        *,
        reverse: bool = False,
        targets: set[int] | None = None,
        parents: dict[int, int] | None = None,
    ) -> tuple[list[float], list[int]]:
        """Single-source Dijkstra over the CSR arrays.

        Returns ``(distances, settled)`` where ``distances`` is indexed by
        dense node index (``math.inf`` for unreached nodes) and ``settled``
        lists the indices whose distance is final -- after an early
        termination the frontier still holds tentative upper bounds, so
        callers must only trust (and cache) the settled entries.  With
        ``targets`` the search terminates once every target index has been
        settled; with ``reverse`` the transposed adjacency is used, i.e.
        distances *to* the source.  ``parents`` (when given) receives each
        reached node's predecessor on its shortest path.
        """
        if reverse:
            indptr, indices, weights = self.rindptr, self.rindices, self.rweights
        else:
            indptr, indices, weights = self.indptr, self.indices, self.weights
        inf = math.inf
        dist = [inf] * self.num_nodes
        dist[source_index] = 0.0
        remaining = set(targets) if targets is not None else None
        heap = [(0.0, source_index)]
        settled: list[int] = []
        # ``visited`` makes single settlement explicit instead of relying on
        # the strict-improvement push discipline (a ``d > dist[node]`` check
        # would let a duplicate entry *tying* on distance settle the node
        # twice, duplicating ``settled`` entries and redoing cache writes;
        # callers must never see duplicates regardless of how relaxation
        # conditions evolve).
        visited = bytearray(self.num_nodes)
        while heap:
            d, node = heapq.heappop(heap)
            if visited[node]:
                continue
            visited[node] = 1
            settled.append(node)
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
            for e in range(indptr[node], indptr[node + 1]):
                succ = indices[e]
                candidate = d + weights[e]
                if candidate < dist[succ]:
                    dist[succ] = candidate
                    if parents is not None:
                        parents[succ] = node
                    heapq.heappush(heap, (candidate, succ))
        return dist, settled

    def __eq__(self, other: object) -> bool:
        """Same nodes and the same arrays, row order included."""
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the compiled arrays (ints + floats, CPython)."""
        return 8 * (2 * (self.num_nodes + 1) + 4 * self.num_edges) + 32 * self.num_nodes
