"""Routing backends behind one protocol, and the shared per-network data.

:class:`~repro.network.shortest_path.DistanceOracle` is a cache and a
counter; every distance comes from one of the backends in this module:

``dijkstra``
    CSR-based Dijkstra with early termination (the reference backend).
``ch``
    The shared one-pass labels, under the ledger's name: a contraction
    hierarchy built up front and every node's hub labels computed from it at
    set-up (:class:`HubLabeling`, the paper's oracle); a distance is a join
    of two labels.
``hub_label``
    The same backend under the paper's name.

All of them implement :class:`RoutingBackend`.  The preprocessed structures
(CSR arrays, the hierarchy, the labels) are built lazily and shared by every
oracle over one :class:`RoadNetwork` (:func:`routing_data`).
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from typing import Protocol

from ...exceptions import NetworkError
from ..road_network import RoadNetwork
from .contraction import ContractionHierarchy
from .csr import CSRGraph
from .hub_labels import HubLabeling

#: Names accepted by :func:`make_backend` and ``SimulationConfig.routing_backend``.
BACKEND_NAMES = ("dijkstra", "ch", "hub_label")


def network_fingerprint(network: RoadNetwork) -> tuple[int, int, int]:
    """O(1) staleness token used to invalidate shared routing data.

    Built on :attr:`RoadNetwork.mutation_count`, a monotonic counter bumped
    on every mutation, so no sequence of mutations can leave it unchanged.
    """
    return network.num_nodes, network.num_edges, network.mutation_count


class RoutingData:
    """Lazily-built routing structures shared by every oracle on one network."""

    __slots__ = ("fingerprint", "csr", "_first", "_hierarchy", "_labeling", "__weakref__")

    def __init__(self, network: RoadNetwork) -> None:
        """Snapshot ``network``."""
        self.fingerprint = network_fingerprint(network)
        self.csr = CSRGraph.from_network(network)
        #: The network's first routed CSR, or its content once compared with.
        self._first = _FIRST_ROUTED.setdefault(network, [self.csr])
        self._hierarchy: ContractionHierarchy | None = None
        self._labeling: HubLabeling | None = None

    @property
    def has_hierarchy(self) -> bool:
        """True when the contraction hierarchy has already been built."""
        return self._hierarchy is not None

    @property
    def hierarchy(self) -> ContractionHierarchy:
        """The contraction hierarchy (built on first access): with witness
        searches over the content the network was first routed at, without
        over any other (DESIGN.md, "Routing backends")."""
        if self._hierarchy is None:
            first = self._first
            if first[0] is not self.csr and isinstance(first[0], CSRGraph):
                first[0] = csr_content(first[0])
            witness = first[0] is self.csr or first[0] == csr_content(self.csr)
            self._hierarchy = ContractionHierarchy(self.csr, witness=witness)
        return self._hierarchy

    @property
    def labeling(self) -> HubLabeling:
        """Every node's hub labels (labelled on first access, off the hierarchy)."""
        if self._labeling is None:
            self._labeling = HubLabeling(self.hierarchy)
        return self._labeling

    def estimated_memory_bytes(self) -> int:
        """The CSR arrays plus the hierarchy and the shared labels, if built."""
        built = [part for part in (self.csr, self._hierarchy, self._labeling) if part is not None]
        return sum(part.estimated_memory_bytes() for part in built)


_ROUTING_DATA: "weakref.WeakKeyDictionary[RoadNetwork, RoutingData]" = (
    weakref.WeakKeyDictionary()
)
_FIRST_ROUTED: "weakref.WeakKeyDictionary[RoadNetwork, list[CSRGraph | tuple]]" = (
    weakref.WeakKeyDictionary()
)


def routing_data(network: RoadNetwork) -> RoutingData:
    """Shared :class:`RoutingData` for ``network`` (rebuilt when it changed)."""
    data = _ROUTING_DATA.get(network)
    if data is None or data.fingerprint != network_fingerprint(network):
        data = RoutingData(network)
        _ROUTING_DATA[network] = data
    return data


# ---------------------------------------------------------------------- #
# dynamic worlds: content signatures
# ---------------------------------------------------------------------- #
def csr_content(
    csr: CSRGraph,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, float], ...]]:
    """Canonical (order-insensitive) node and weighted-edge set of a CSR.

    Equal signatures mean equal distances, which lets a refresh recognise an
    exact reversion (a wave receding, a road reopening at its old cost).
    They do not mean equal CSRs: rows follow adjacency insertion order, so a
    reopened road moves to the end of its row, and a hierarchy contracted
    from the new rows may differ from one contracted from the old.
    """
    ids, indptr, indices, weights = csr.node_ids, csr.indptr, csr.indices, csr.weights
    return tuple(ids), tuple(sorted(
        (ids[u], ids[indices[e]], weights[e])
        for u in range(csr.num_nodes)
        for e in range(indptr[u], indptr[u + 1])
    ))


def install_routing_data(network: RoadNetwork, data: RoutingData) -> None:
    """Register ``data`` as the routing state ``network`` is served from.

    Only valid when ``data`` answers for the network's current content: the
    fingerprint moves to the current mutation counter so staleness checks
    clear, and :func:`routing_data` serves ``data`` to every later oracle.
    """
    data.fingerprint = network_fingerprint(network)
    _ROUTING_DATA[network] = data


# ---------------------------------------------------------------------- #
# the protocol
# ---------------------------------------------------------------------- #
#: Exact ``(source, target) -> travel time`` entries keyed by node
#: identifiers; ``math.inf`` marks an unreachable pair.
Distances = dict[tuple[int, int], float]


class RoutingBackend(Protocol):
    """What :class:`DistanceOracle` asks of whichever backend serves it.

    Arguments and results speak node identifiers; an identifier missing from
    ``data.csr`` raises :class:`NetworkError` before any search runs.  Every
    query hands back, next to its answer, the number of nodes settled (label
    entries scanned) and a :data:`Distances` table of everything the search
    established exactly -- the asked pairs always, plus whatever came for
    free (a Dijkstra's settled set).  The oracle caches that table in
    iteration order.
    """

    name: str
    #: The network snapshot this backend answers for.
    data: RoutingData

    def one_to_one(self, source: int, target: int) -> tuple[float, int, Distances]:
        """``(distance, settled, learned)`` for one pair."""

    def many_to_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> tuple[Distances, int, int]:
        """``(learned, searches, settled)``; ``learned`` holds every pair asked."""

    def path(
        self, source: int, target: int
    ) -> tuple[list[int] | None, int, Distances]:
        """``(nodes, settled, learned)``; ``nodes`` is ``None`` when unreachable."""

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of every structure the backend keeps alive."""


# ---------------------------------------------------------------------- #
# graph search (dijkstra)
# ---------------------------------------------------------------------- #
class GraphSearchBackend:
    """Dijkstra over the CSR arrays; no preprocessing beyond the CSR.

    A search learns the exact distance of every node it settles, which
    amortises repeated queries from popular locations (vehicle positions)
    once the oracle has cached them.
    """

    name = "dijkstra"

    def __init__(self, data: RoutingData) -> None:
        self.data = data

    def one_to_one(self, source: int, target: int) -> tuple[float, int, Distances]:
        """Early-terminating search; learns the settled set of ``source``."""
        return self._search(source, target, None)

    def many_to_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> tuple[Distances, int, int]:
        """One multi-target search per distinct node of the smaller side.

        Searching backwards when few targets serve many sources (candidate
        vehicles converging on one pick-up) minimises the number of
        searches; each one learns its whole settled set.
        """
        csr = self.data.csr
        index = csr.require_index
        by_source: dict[int, dict[int, None]] = {}
        by_target: dict[int, dict[int, None]] = {}
        for source, target in pairs:
            s, t = index(source), index(target)
            by_source.setdefault(s, {})[t] = None
            by_target.setdefault(t, {})[s] = None
        reverse = len(by_target) < len(by_source)
        groups = by_target if reverse else by_source
        ids = csr.node_ids
        inf = math.inf
        learned: Distances = {}
        work = 0
        for anchor_index, others in groups.items():
            dist, settled = csr.sssp(anchor_index, targets=others, reverse=reverse)
            work += len(settled)
            # A target the exhausted search never reached is known too: inf.
            settled.extend(i for i in others if dist[i] == inf)
            anchor = ids[anchor_index]
            if reverse:
                for i in settled:
                    learned[(ids[i], anchor)] = dist[i]
            else:
                for i in settled:
                    learned[(anchor, ids[i])] = dist[i]
        return learned, len(groups), work

    def path(
        self, source: int, target: int
    ) -> tuple[list[int] | None, int, Distances]:
        """The search of :meth:`one_to_one` with parent pointers kept."""
        parents: dict[int, int] = {}
        distance, work, learned = self._search(source, target, parents)
        if distance == math.inf:
            return None, work, learned
        csr = self.data.csr
        ids = csr.node_ids
        first, node = csr.index_of[source], csr.index_of[target]
        nodes = [target]
        while node != first:
            node = parents[node]
            nodes.append(ids[node])
        nodes.reverse()
        return nodes, work, learned

    def estimated_memory_bytes(self) -> int:
        """The CSR arrays (a search keeps nothing alive)."""
        return self.data.csr.estimated_memory_bytes()

    def _search(
        self, source: int, target: int, parents: dict[int, int] | None
    ) -> tuple[float, int, Distances]:
        """Point-to-point search with early termination at ``target``.

        Fills ``parents`` (dense index -> predecessor index) when given.
        """
        csr = self.data.csr
        first, last = csr.require_index(source), csr.require_index(target)
        dist, settled = csr.sssp(first, targets={last}, parents=parents)
        ids = csr.node_ids
        learned = {(source, ids[i]): dist[i] for i in settled}
        learned[(source, target)] = dist[last]  # an unreached target: inf
        return dist[last], len(settled), learned


# ---------------------------------------------------------------------- #
# preprocessed backends
# ---------------------------------------------------------------------- #
class CHBackend:
    """Hub-label joins over the network's shared :class:`HubLabeling`.

    The hierarchy and every label are built up front and shared by every
    oracle over one network; a refreshed oracle gets a fresh backend over
    the new state's store.  ``settled`` is
    :meth:`HubLabeling.query`'s.
    """

    name = "ch"

    def __init__(self, data: RoutingData) -> None:
        self.data = data
        self.labeling = data.labeling

    def one_to_one(self, source: int, target: int) -> tuple[float, int, Distances]:
        """One label join; learns the asked pair only."""
        index = self.data.csr.require_index
        distance, work = self.labeling.query(index(source), index(target))
        return distance, work, {(source, target): distance}

    def many_to_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> tuple[Distances, int, int]:
        """One join per distinct requested pair, never the dense product."""
        index = self.data.csr.require_index
        index_pairs = [(index(s), index(t)) for s, t in pairs]
        join = self.labeling.query
        learned: Distances = {}
        work = 0
        for pair, (s, t) in zip(pairs, index_pairs):
            if pair not in learned:
                learned[pair], settled = join(s, t)
                work += settled
        return learned, len(learned), work

    def path(
        self, source: int, target: int
    ) -> tuple[list[int] | None, int, Distances]:
        """:meth:`GraphSearchBackend.path` over the CSR; learns the asked pair only."""
        nodes, work, learned = GraphSearchBackend(self.data).path(source, target)
        return nodes, work, {(source, target): learned[(source, target)]}

    def estimated_memory_bytes(self) -> int:
        """The CSR arrays, the hierarchy over them and its labels."""
        return self.data.estimated_memory_bytes()


class HubLabelBackend(CHBackend):
    """:class:`CHBackend` under the paper's name."""

    name = "hub_label"


_BACKENDS: dict[str, type] = {
    backend.name: backend
    for backend in (GraphSearchBackend, CHBackend, HubLabelBackend)
}


def make_backend(name: str, data: RoutingData) -> RoutingBackend:
    """Instantiate the backend ``name`` over shared routing ``data``."""
    backend = _BACKENDS.get(name.lower())
    if backend is None:
        raise NetworkError(
            f"unknown routing backend {name!r}; choose from {BACKEND_NAMES}"
        )
    return backend(data)
