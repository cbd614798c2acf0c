"""Dynamic shareability-graph builder (Algorithm 1).

For every new request ``r_a`` in the incoming batch the builder:

1. filters candidate requests through a grid index over request sources plus
   a deadline / detour-tolerance window (no shortest-path query needed),
2. applies the angle pruning rule (Theorem III.1), and
3. runs the two-request linear-insertion feasibility test to decide whether
   an edge is added.

The builder is *incremental*: the graph of the previous batch is reused and
only edges incident to newly arrived requests are probed, which is what makes
batch-mode dispatch affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from ..config import SimulationConfig
from ..insertion.pair_schedules import are_shareable
from ..model.request import Request
from ..network.grid_index import GridIndex
from ..network.road_network import RoadNetwork
from ..network.shortest_path import DistanceOracle
from ..observability.trace import get_tracer
from .angle_pruning import passes_angle_filter
from .graph import ShareabilityGraph


@dataclass
class BuilderStatistics:
    """Counters describing the pruning effectiveness of the builder."""

    pruned_by_spatial: int = 0
    pruned_by_angle: int = 0
    pairs_tested: int = 0
    edges_added: int = 0
    #: Shortest-path queries issued while testing pairs (difference of the
    #: oracle counter around the feasibility tests).  A leg the test refuses
    #: on the straight-line bound is never asked, so this "#SP queries"
    #: column is below that of a test that prices every leg.
    shortest_path_queries: int = 0


@dataclass
class DynamicShareabilityGraphBuilder:
    """Maintains a shareability graph across batches (Algorithm 1).

    Parameters
    ----------
    network:
        Road network providing node coordinates for spatial filtering and the
        angle rule.
    oracle:
        Shortest-path oracle used by the pairwise feasibility test.
    config:
        Simulation configuration supplying the angle threshold, the vehicle
        capacity (used by the pair test) and the grid resolution.
    average_speed:
        Mean driving speed (m/s) used to convert deadline slack into a search
        radius for the spatial filter.
    """

    network: RoadNetwork
    oracle: DistanceOracle
    config: SimulationConfig
    average_speed: float = 10.0
    graph: ShareabilityGraph = field(default_factory=ShareabilityGraph)
    stats: BuilderStatistics = field(default_factory=BuilderStatistics)
    _source_index: GridIndex | None = None

    def __post_init__(self) -> None:
        if self._source_index is None:
            self._source_index = GridIndex.for_network(self.network)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def update(self, new_requests: Iterable[Request]) -> ShareabilityGraph:
        """Insert a batch of new requests and connect them to shareable peers.

        Returns the updated graph (the same object the builder maintains).
        """
        requests = list(new_requests)
        if not requests:
            return self.graph
        with get_tracer().span(
            "shareability.update", new_requests=len(requests)
        ) as span:
            edges_before = self.stats.edges_added
            pairs_before = self.stats.pairs_tested
            for request in requests:
                self._insert_request(request)
            span.tag("pairs_tested", self.stats.pairs_tested - pairs_before)
            span.tag("edges_added", self.stats.edges_added - edges_before)
        return self.graph

    def remove(self, request_ids: Iterable[int]) -> None:
        """Drop assigned or expired requests from the graph and the index."""
        for rid in list(request_ids):
            if rid in self.graph:
                self.graph.remove_request(rid)
            self._source_index.remove(rid)

    def sync(self, pending: Iterable[Request]) -> tuple[int, int]:
        """Make the graph hold exactly ``pending``.

        Assigned and expired requests are dropped (:meth:`remove`), requests
        not seen yet are probed for shareable partners (:meth:`update`).
        Returns how many went out and how many came in.
        """
        pending = list(pending)
        pending_ids = {request.request_id for request in pending}
        stale = [rid for rid in self.graph.request_ids() if rid not in pending_ids]
        self.remove(stale)
        new_requests = [r for r in pending if r.request_id not in self.graph]
        self.update(new_requests)
        return len(stale), len(new_requests)

    def reset(self) -> None:
        """Forget every request (used between independent experiments)."""
        self.graph = ShareabilityGraph()
        self._source_index = GridIndex.for_network(self.network)
        self.stats = BuilderStatistics()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _search_radius(self, request: Request) -> float:
        """Euclidean radius of the candidate window around a request source.

        Two requests can only share when the detour budget of one can absorb
        the hop to the other's source, so the radius is the distance a vehicle
        can drive within the request's detour budget plus waiting slack.
        """
        slack = max(request.detour_budget, 0.0) + self.config.max_wait
        return max(self.average_speed * slack, 1.0)

    def _insert_request(self, request: Request) -> None:
        if request.request_id in self.graph:
            return
        graph = self.graph
        graph.add_request(request)
        source_xy = self.network.position(request.source)
        radius = self._search_radius(request)
        candidate_ids = self._source_index.query_radius(
            source_xy[0], source_xy[1], radius
        )
        total_existing = len(graph) - 1
        self.stats.pruned_by_spatial += max(total_existing - len(candidate_ids), 0)
        threshold = self.config.angle_threshold
        survivors: list[Request] = []
        for candidate_id in candidate_ids:
            if candidate_id == request.request_id or candidate_id not in graph:
                continue
            candidate = graph.request(candidate_id)
            if not self._deadline_window_overlaps(request, candidate):
                self.stats.pruned_by_spatial += 1
                continue
            if not passes_angle_filter(self.network, request, candidate, threshold):
                self.stats.pruned_by_angle += 1
                continue
            survivors.append(candidate)
        for candidate in survivors:
            if self._test_pair(request, candidate):
                graph.add_edge(request.request_id, candidate.request_id)
                self.stats.edges_added += 1
        self._source_index.insert(request.request_id, source_xy[0], source_xy[1])

    def _deadline_window_overlaps(self, first: Request, second: Request) -> bool:
        """Cheap temporal filter: pick-up windows of the two requests overlap."""
        first_window = (first.release_time, first.latest_pickup)
        second_window = (second.release_time, second.latest_pickup)
        return (
            first_window[0] <= second_window[1] + 1e-9
            and second_window[0] <= first_window[1] + 1e-9
        )

    def _test_pair(self, anchor: Request, candidate: Request) -> bool:
        """Run the pairwise feasibility test, charging shortest-path queries."""
        before = self.oracle.stats.queries
        self.stats.pairs_tested += 1
        shareable = are_shareable(
            anchor, candidate, self.oracle, capacity=self.config.capacity
        )
        self.stats.shortest_path_queries += self.oracle.stats.queries - before
        return shareable
