"""Contraction Hierarchies (CH) preprocessor.

DESIGN.md ("Routing backends") describes the whole; the invariants the code
below leans on are these.

* Nodes are contracted in lazy edge-difference order, whose shortcut term is
  a cached 1-hop estimate; the contraction itself runs bounded *witness
  searches* (a Dijkstra from ``u`` avoiding ``v``) and deletes overlay edges
  a witness proves longer (edge reduction).  Bounds only add redundant
  shortcuts, never lose exactness.
* The upward adjacency is one pair of per-node dicts of contraction-time
  incident edges, read only by the rank-order label passes of
  :mod:`repro.network.routing.hub_labels`.  No path is read off it (no
  shortcut middles): every ``path()`` is ``GraphSearchBackend``'s Dijkstra.
* Search state is flat: one ``dist`` list of ``n`` floats, ``inf`` between
  searches, reset only where a search wrote.  While ``v`` is contracted
  ``dist[v]`` is ``-1.0``, so no witness search relaxes into it, and no
  overlay edge leads into a contracted node; a candidate above the search's
  cost cap is neither pushed nor written.
* A hierarchy never changes once built: a mutated network gets a new build
  (:meth:`~repro.network.shortest_path.DistanceOracle.repair` swaps a held
  one back when the network returns to its content).
"""

from __future__ import annotations

import heapq
import math

from .csr import CSRGraph

#: Witness searches stop after settling this many nodes; a smaller limit
#: speeds preprocessing up at the price of a few redundant shortcuts.
DEFAULT_WITNESS_LIMIT = 80


class ContractionHierarchy:
    """A CH overlay (ranks + upward adjacencies) over a :class:`CSRGraph`."""

    __slots__ = ("csr", "rank", "_contract_order", "_stored_fwd", "_stored_bwd", "_dist")

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        n = csr.num_nodes
        #: Contraction order: ``rank[i] == 0`` is contracted first.
        self.rank: list[int] = [0] * n
        #: Node indices in contraction order (``rank`` inverted).
        self._contract_order: list[int] = []
        #: Contraction-time incident overlay edges of every node: the upward
        #: adjacency (``_stored_fwd[i]`` maps the higher-ranked heads of
        #: ``i``'s outgoing edges to weights, ``_stored_bwd[i]`` the tails of
        #: its incoming ones).
        self._stored_fwd: list[dict[int, float]] = [{} for _ in range(n)]
        self._stored_bwd: list[dict[int, float]] = [{} for _ in range(n)]
        #: Witness-search scratch: ``inf`` everywhere between searches.
        self._dist: list[float] = [math.inf] * n
        self._build()

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _overlay_from_csr(
        csr: CSRGraph,
    ) -> tuple[list[dict[int, float]], list[dict[int, float]]]:
        """Dynamic overlay dicts of the not-yet-contracted graph.

        Dicts keep the minimum weight per ``(u, v)`` pair when shortcuts
        parallel real edges.  The scan order (ascending node index, CSR row
        order within a node) fixes dict insertion order, so a build is a
        pure function of the CSR, row order included.
        """
        n = csr.num_nodes
        fwd: list[dict[int, float]] = [{} for _ in range(n)]
        bwd: list[dict[int, float]] = [{} for _ in range(n)]
        for u in range(n):
            fwd_u = fwd[u]
            for v, w in csr.out_edges(u):
                old = fwd_u.get(v)
                if old is None or w < old:
                    fwd_u[v] = w
                    bwd[v][u] = w
        return fwd, bwd

    def _build(self) -> None:
        csr = self.csr
        n = csr.num_nodes
        fwd, bwd = self._overlay_from_csr(csr)
        deleted_neighbors = [0] * n
        contracted = [False] * n
        dirty = [False] * n

        def estimate(v: int) -> int:
            """Edge-difference priority with a 1-hop witness *estimate*.

            Witness Dijkstras dominate build time, so the ordering heuristic
            only checks whether a direct overlay edge ``u -> x`` already
            beats the candidate shortcut.  This may overcount shortcuts (a
            multi-hop witness goes unnoticed) but never affects correctness:
            the real contraction below re-runs full witness searches.
            """
            out_edges = fwd[v].items()
            shortcuts = 0
            for u, w_in in bwd[v].items():
                if u == v:
                    continue
                direct = fwd[u]
                for x, w_out in out_edges:
                    if x == u:
                        continue
                    existing = direct.get(x)
                    if existing is None or existing > w_in + w_out:
                        shortcuts += 1
            return shortcuts - len(fwd[v]) - len(bwd[v]) + deleted_neighbors[v]

        # Lazy re-prioritisation: priorities are cached and only re-estimated
        # for nodes whose neighbourhood changed, instead of on every heap pop.
        priority_of = [estimate(v) for v in range(n)]
        heap = [(priority_of[v], v) for v in range(n)]
        heapq.heapify(heap)
        order = 0
        while heap:
            p, v = heapq.heappop(heap)
            if contracted[v] or p != priority_of[v]:
                continue  # superseded entry
            if dirty[v]:
                dirty[v] = False
                current = estimate(v)
                if current != p:
                    priority_of[v] = current
                    heapq.heappush(heap, (current, v))
                    continue
            stored_fwd, stored_bwd = self._contract_node(v, fwd, bwd)
            contracted[v] = True
            self._stored_fwd[v] = stored_fwd
            self._stored_bwd[v] = stored_bwd
            self._contract_order.append(v)
            self.rank[v] = order
            order += 1
            for x in stored_fwd:
                deleted_neighbors[x] += 1
                dirty[x] = True
            for u in stored_bwd:
                deleted_neighbors[u] += 1
                dirty[u] = True

    def _witness_search(
        self,
        source: int,
        cap: float,
        fwd: list[dict[int, float]],
        targets: set[int],
    ) -> list[int]:
        """Bounded Dijkstra from ``source`` in the overlay, avoiding the
        node being contracted (whose ``dist`` entry the caller holds at
        ``-1.0``, so no edge into it ever relaxes).

        Tentative distances land in ``self._dist``; the returned list names
        every entry written, which the caller resets to ``inf`` once it has
        read the distances it needs.  A candidate above ``cap`` is neither
        pushed nor written: it could never be settled, and the caller
        compares each distance with a ``through = w_in + w_out <= cap``, on
        which such a value decides exactly as ``inf`` does (shortcut kept,
        no reduction).
        ``targets`` holds the shortcut endpoints the caller will inspect
        (never the source); the search stops as soon as every one of them is
        settled -- its distance is final by then -- instead of always running
        to the settle limit or cost cap.
        """
        inf = math.inf
        dist = self._dist
        dist[source] = 0.0
        touched = [source]
        remaining = len(targets)
        if remaining == 0:
            return touched
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = [(0.0, source)]
        settled = 0
        while heap and settled < DEFAULT_WITNESS_LIMIT:
            d, node = heappop(heap)
            if d > dist[node]:
                continue
            settled += 1
            if node in targets:
                remaining -= 1
                if remaining == 0:
                    break
            for succ, w in fwd[node].items():
                candidate = d + w
                if candidate <= cap:
                    old = dist[succ]
                    if candidate < old:
                        if old == inf:
                            touched.append(succ)
                        dist[succ] = candidate
                        heappush(heap, (candidate, succ))
        return touched

    def _contract_node(
        self,
        v: int,
        fwd: list[dict[int, float]],
        bwd: list[dict[int, float]],
    ) -> tuple[dict[int, float], dict[int, float]]:
        """Contract ``v`` against the overlay.

        Materialises the needed shortcuts *before* removing ``v``, one
        in-neighbour at a time: its shortcuts are written before the next
        in-neighbour's witness search runs.  This always re-runs the witness
        searches against the *current* overlay: a witness observed earlier
        may have run through a since-contracted node whose own contraction
        shifted the shortcut burden onto ``v``, so shortcut decisions cannot
        be cached across contractions.  An overlay edge ``u -> x`` that the
        witness search proves non-shortest is deleted on the fly (safe: a
        witnessed edge is not on any shortest path, so removing it keeps the
        overlay distance-preserving).

        Returns ``(incident_fwd, incident_bwd)``: ``v``'s contraction-time
        incident edges, which become its upward adjacency (every surviving
        endpoint outranks ``v`` by construction).
        """
        inf = math.inf
        dist = self._dist
        out_edges = list(fwd[v].items())
        # Without an out-edge there is nothing to bypass and nobody to search.
        in_edges = list(bwd[v].items()) if out_edges else []
        max_out = max((w for _, w in out_edges), default=0.0)
        heads = set(fwd[v])
        dist[v] = -1.0
        for u, w_in in in_edges:
            if u == v:
                continue
            fwd_u = fwd[u]
            touched = self._witness_search(u, w_in + max_out, fwd, heads - {u})
            for x, w_out in out_edges:
                if x == u:
                    continue
                through = w_in + w_out
                witness_dist = dist[x]
                existing = fwd_u.get(x)
                if witness_dist > through:
                    if existing is None or through < existing:
                        fwd_u[x] = through
                        bwd[x][u] = through
                elif existing is not None and witness_dist < existing:
                    # The witness path (avoiding v) beats the direct overlay
                    # edge: the edge is not a shortest path and can be
                    # dropped without changing overlay distances.
                    del fwd_u[x]
                    del bwd[x][u]
            for node in touched:
                dist[node] = inf
        dist[v] = inf
        # Compact copies: the overlay dicts may carry slots of reduced edges,
        # and the label passes read these for the hierarchy's lifetime.
        incident_fwd = dict(fwd[v])
        incident_bwd = dict(bwd[v])
        for x in incident_fwd:
            del bwd[x][v]
        for u in incident_bwd:
            del fwd[u][v]
        fwd[v] = {}
        bwd[v] = {}
        return incident_fwd, incident_bwd

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the upward adjacencies and the search scratch."""
        entries = sum(map(len, self._stored_fwd)) + sum(map(len, self._stored_bwd))
        # Incident dicts (the upward adjacency), per-node rank / order / dict
        # overhead and the flat ``dist`` list (8 bytes a slot).
        return 64 * entries + 128 * len(self.rank) + 8 * len(self._dist)
