"""The shareability graph data structure (Definition 5).

Nodes are request identifiers; an undirected edge ``(r_a, r_b)`` means the
two requests can be served together on one trip.  The structure supports the
operations the StructRide framework needs: degree ("shareability") queries,
neighbourhood intersections for the shareability loss, clique tests for the
grouping algorithm, and removal of assigned or expired requests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from ..exceptions import ReproError
from ..model.request import Request


class ShareabilityGraph:
    """Undirected graph over pending requests with adjacency sets.

    The graph stores the :class:`~repro.model.request.Request` objects
    themselves so that dispatchers can recover request metadata from a node
    identifier without a separate lookup table.
    """

    def __init__(self) -> None:
        self._requests: dict[int, Request] = {}
        self._adjacency: dict[int, set[int]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction / maintenance
    # ------------------------------------------------------------------ #
    def add_request(self, request: Request) -> None:
        """Add a node for ``request`` (idempotent)."""
        rid = request.request_id
        if rid not in self._requests:
            self._requests[rid] = request
            self._adjacency[rid] = set()

    def add_edge(self, first_id: int, second_id: int) -> None:
        """Add the undirected edge between two existing nodes."""
        if first_id == second_id:
            raise ReproError("a request cannot share with itself")
        if first_id not in self._adjacency or second_id not in self._adjacency:
            raise ReproError(
                f"both requests must be nodes before adding edge ({first_id}, {second_id})"
            )
        if second_id not in self._adjacency[first_id]:
            self._adjacency[first_id].add(second_id)
            self._adjacency[second_id].add(first_id)
            self._num_edges += 1

    def remove_request(self, request_id: int) -> None:
        """Remove a node and all incident edges; missing nodes are ignored."""
        if request_id not in self._adjacency:
            return
        for neighbour in self._adjacency[request_id]:
            self._adjacency[neighbour].discard(request_id)
            self._num_edges -= 1
        del self._adjacency[request_id]
        del self._requests[request_id]

    def remove_requests(self, request_ids: Iterable[int]) -> None:
        """Remove several nodes."""
        for rid in list(request_ids):
            self.remove_request(rid)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of request nodes."""
        return len(self._requests)

    @property
    def num_edges(self) -> int:
        """Number of undirected shareability edges."""
        return self._num_edges

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._requests

    def __len__(self) -> int:
        return len(self._requests)

    def request_ids(self) -> Iterator[int]:
        """Iterate over node identifiers."""
        return iter(self._requests)

    def requests(self) -> list[Request]:
        """All request objects currently in the graph."""
        return list(self._requests.values())

    def request(self, request_id: int) -> Request:
        """The request object of a node."""
        try:
            return self._requests[request_id]
        except KeyError as exc:
            raise ReproError(f"request {request_id} is not in the graph") from exc

    def has_edge(self, first_id: int, second_id: int) -> bool:
        """True when the two requests are shareable."""
        return second_id in self._adjacency.get(first_id, ())

    def neighbors(self, request_id: int) -> set[int]:
        """Identifiers of the requests shareable with ``request_id``."""
        try:
            return set(self._adjacency[request_id])
        except KeyError as exc:
            raise ReproError(f"request {request_id} is not in the graph") from exc

    def degree(self, request_id: int) -> int:
        """The *shareability* of a request (Observation 1): its degree."""
        try:
            return len(self._adjacency[request_id])
        except KeyError as exc:
            raise ReproError(f"request {request_id} is not in the graph") from exc

    def degrees(self) -> dict[int, int]:
        """Degree of every node."""
        return {rid: len(neigh) for rid, neigh in self._adjacency.items()}

    def is_clique(self, request_ids: Iterable[int]) -> bool:
        """True when the nodes are pairwise shareable (Observation 2)."""
        members = list(request_ids)
        for index, first in enumerate(members):
            if first not in self._adjacency:
                return False
            neighbours = self._adjacency[first]
            for second in members[index + 1:]:
                if second not in neighbours:
                    return False
        return True

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges once each (``u < v``)."""
        for u, neighbours in self._adjacency.items():
            for v in neighbours:
                if u < v:
                    yield u, v

    def copy(self) -> "ShareabilityGraph":
        """Deep copy of the graph structure (requests are shared, immutable)."""
        duplicate = ShareabilityGraph()
        duplicate._requests = dict(self._requests)
        duplicate._adjacency = {rid: set(neigh) for rid, neigh in self._adjacency.items()}
        duplicate._num_edges = self._num_edges
        return duplicate

    def to_networkx(self) -> Any:
        """Export as an undirected :class:`networkx.Graph` (tests / analysis)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._requests)
        graph.add_edges_from(self.edges())
        return graph

    def estimated_memory_bytes(self) -> int:
        """Rough memory footprint (for the memory study of Figure 14)."""
        return 120 * len(self._requests) + 60 * 2 * self._num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShareabilityGraph(nodes={self.num_nodes}, edges={self.num_edges})"
