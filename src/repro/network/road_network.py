"""Directed weighted road-network graph with planar coordinates.

The network is the substrate every other subsystem queries: edge weights are
average travel times in seconds (the paper's ``cost(u, v)``), and node
coordinates are used by the grid index and by the angle-pruning rule of the
shareability-graph builder.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import Any

import numpy as np

from ..exceptions import NetworkError
from ..numeric import to_grid


class RoadNetwork:
    """A directed, weighted road graph with 2-D node coordinates.

    Nodes are integer identifiers with an ``(x, y)`` position expressed in
    meters (any planar unit works as long as it is consistent).  Edges carry
    a positive travel time in seconds.

    The class is intentionally a thin adjacency structure: all routing
    intelligence lives in :class:`~repro.network.shortest_path.DistanceOracle`.
    """

    def __init__(self) -> None:
        self._positions: dict[int, tuple[float, float]] = {}
        self._adjacency: dict[int, dict[int, float]] = {}
        self._reverse: dict[int, dict[int, float]] = {}
        self._num_edges = 0
        self._mutations = 0
        # ``nearest_node``'s view of the positions: node ids plus x and y
        # arrays in insertion order; dropped whenever a node is added or moved.
        self._coords: tuple[list[int], np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: int, x: float, y: float) -> None:
        """Add (or move) a node with finite planar coordinates ``(x, y)``."""
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NetworkError(f"node {node} has non-finite coordinates ({x}, {y})")
        self._mutations += 1
        self._coords = None
        self._positions[node] = (float(x), float(y))
        self._adjacency.setdefault(node, {})
        self._reverse.setdefault(node, {})

    def add_edge(
        self, u: int, v: int, cost: float, *, bidirectional: bool = False
    ) -> None:
        """Add a directed edge ``u -> v`` with a finite, non-negative travel time.

        The weight is rounded up to the time grid (:mod:`repro.numeric`), so
        every path cost is exact and no bound drawn from the geometry rises
        above it.  With ``bidirectional=True`` the reverse edge ``v -> u`` is
        added with the same cost.
        """
        if u not in self._positions or v not in self._positions:
            raise NetworkError(f"both endpoints must exist before adding edge ({u}, {v})")
        if not 0 <= cost < math.inf:
            raise NetworkError(f"edge ({u}, {v}) has cost {cost}, not a finite cost >= 0")
        if u == v:
            raise NetworkError(f"self-loop edges are not allowed (node {u})")
        if v not in self._adjacency[u]:
            self._num_edges += 1
        cost = to_grid(float(cost), up=True)
        self._adjacency[u][v] = cost
        self._reverse[v][u] = cost
        self._mutations += 1
        if bidirectional:
            self.add_edge(v, u, cost, bidirectional=False)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``u -> v``."""
        try:
            del self._adjacency[u][v]
        except KeyError as exc:
            raise NetworkError(f"no edge between {u} and {v}") from exc
        del self._reverse[v][u]
        self._num_edges -= 1
        self._mutations += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self._positions)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the network."""
        return self._num_edges

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped on every structural mutation.

        Every node addition/move and every edge add/reweight/removal bumps
        it, so consumers holding preprocessed structures (the routing layer's
        :func:`~repro.network.routing.backends.routing_data`) can detect
        staleness in O(1) -- unlike a content checksum, two mutations can
        never cancel out.
        """
        return self._mutations

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers."""
        return iter(self._positions)

    def has_node(self, node: int) -> bool:
        """Return ``True`` if the node exists."""
        return node in self._positions

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the directed edge ``u -> v`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def edge_cost(self, u: int, v: int) -> float:
        """Travel time of the directed edge ``u -> v``."""
        try:
            return self._adjacency[u][v]
        except KeyError as exc:
            raise NetworkError(f"no edge between {u} and {v}") from exc

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(successor, cost)`` pairs of ``node``."""
        try:
            adjacency = self._adjacency[node]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node}") from exc
        return iter(adjacency.items())

    def predecessors(self, node: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(predecessor, cost)`` pairs of ``node``."""
        try:
            reverse = self._reverse[node]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node}") from exc
        return iter(reverse.items())

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        if node not in self._adjacency:
            raise NetworkError(f"unknown node {node}")
        return len(self._adjacency[node])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, cost)`` triples of every directed edge."""
        for u, adjacency in self._adjacency.items():
            for v, cost in adjacency.items():
                yield u, v, cost

    def position(self, node: int) -> tuple[float, float]:
        """Planar coordinates of ``node``."""
        try:
            return self._positions[node]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node}") from exc

    def euclidean(self, u: int, v: int) -> float:
        """Straight-line distance between two nodes, in coordinate units."""
        ux, uy = self.position(u)
        vx, vy = self.position(v)
        return math.hypot(ux - vx, uy - vy)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all node positions."""
        if not self._positions:
            raise NetworkError("bounding box of an empty network is undefined")
        xs = [p[0] for p in self._positions.values()]
        ys = [p[1] for p in self._positions.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def nearest_node(self, x: float, y: float) -> int:
        """Node whose coordinates are closest to ``(x, y)``.

        The answer is the linear scan's: the first node, in insertion order,
        with the smallest ``(nx - x) ** 2 + (ny - y) ** 2``.  numpy scores
        every node at once and shortlists those within a relative ``1e-9``
        of the minimum; only the shortlist is re-scored with that Python
        expression (strict ``<``, insertion order), because libm's
        ``v ** 2`` and numpy's ``v * v`` can differ in the last bit and the
        tie-break must not move.
        """
        if not self._positions:
            raise NetworkError("nearest_node on an empty network is undefined")
        if self._coords is None:
            xy = np.array(list(self._positions.values()), dtype=float)
            self._coords = (list(self._positions), xy[:, 0], xy[:, 1])
        nodes, xs, ys = self._coords
        squared = (xs - x) ** 2 + (ys - y) ** 2
        shortlist = np.flatnonzero(squared <= squared.min() * (1 + 1e-9) + 1e-300)
        positions = self._positions
        best_node = -1
        best_dist = math.inf
        for index in shortlist.tolist():
            node = nodes[index]
            nx, ny = positions[node]
            dist = (nx - x) ** 2 + (ny - y) ** 2
            if dist < best_dist:
                best_dist = dist
                best_node = node
        return best_node

    # ------------------------------------------------------------------ #
    # interoperability
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> Any:
        """Export the network as a :class:`networkx.DiGraph` (for tests/analysis)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, (x, y) in self._positions.items():
            graph.add_node(node, x=x, y=y)
        for u, v, cost in self.edges():
            graph.add_edge(u, v, weight=cost)
        return graph

    def __contains__(self, node: int) -> bool:
        return node in self._positions

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
