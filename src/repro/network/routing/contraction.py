"""Contraction Hierarchies (CH) preprocessor and repair.

DESIGN.md ("Routing backends", "Incremental CH repair") describes the
whole; the invariants the code below leans on are these.

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
  searches, reset only where a search wrote (a repair fork shares it).
  While ``v`` is contracted ``dist[v]`` is ``-1.0``, so no witness search
  relaxes into it, and no overlay edge leads into a contracted node; a
  candidate above the search's cost cap is neither pushed nor written.
* :meth:`ContractionHierarchy.repair` replays the frozen contraction order
  against a mutated graph from the per-node records of the build (effects,
  incident edges, witness support sets): clean nodes re-apply their effects,
  dirty ones re-contract, and the result is a copy-on-write fork that leaves
  this hierarchy valid for the graph it was built on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .csr import CSRGraph

#: Witness searches stop after settling this many nodes; a smaller limit
#: speeds preprocessing up at the price of a few redundant shortcuts.
DEFAULT_WITNESS_LIMIT = 80

#: A repair whose affected set exceeds this fraction of all nodes gives up
#: (the caller rebuilds): past that point a rebuild is cheaper than
#: splicing the repairs in.
REPAIR_MAX_FRACTION = 0.2


@dataclass(frozen=True)
class CHRepairStats:
    """What one :meth:`ContractionHierarchy.repair` call actually did."""

    #: Nodes whose contraction was re-run with fresh witness searches.
    nodes_recontracted: int
    #: Overlay-edge effects (shortcut insertions / reductions) that differ
    #: from the recorded build -- the size of the splice into the hierarchy.
    shortcuts_replaced: int


class ContractionHierarchy:
    """A CH overlay (ranks + upward adjacencies) over a :class:`CSRGraph`."""

    __slots__ = (
        "csr",
        "rank",
        "_contract_order",
        "_stored_fwd",
        "_stored_bwd",
        "_added",
        "_reduced",
        "_witness_settled",
        "_witness_dependents",
        "_dist",
    )

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        n = csr.num_nodes
        #: Contraction order: ``rank[i] == 0`` is contracted first.
        self.rank: list[int] = [0] * n
        # --- repair-support records (see the module docstring) --------- #
        #: Node indices in contraction order (``rank`` inverted).
        self._contract_order: list[int] = []
        #: Contraction-time incident overlay edges of every node: the upward
        #: adjacency (``_stored_fwd[i]`` maps the higher-ranked heads of
        #: ``i``'s outgoing edges to weights, ``_stored_bwd[i]`` the tails of
        #: its incoming ones) *and* the replay comparison anchor.
        self._stored_fwd: list[dict[int, float]] = []
        self._stored_bwd: list[dict[int, float]] = []
        #: Per-node contraction effects: overlay assignments ``(u, x, w)``
        #: (shortcuts bypassing the node) and overlay edges ``(u, x, w)``
        #: its witnesses reduced (with the deleted weight, so a replay can
        #: tell whether the reduction still applies), in application order.
        self._added: list[list[tuple[int, int, float]]] = []
        self._reduced: list[list[tuple[int, int, float]]] = []
        #: Nodes settled by the node's witness searches, plus the inverted
        #: support index ``settled node -> {contractions that searched it}``,
        #: which only :meth:`repair` reads and inverts on its first call.
        self._witness_settled: list[list[int]] = []
        self._witness_dependents: list[set[int]] | None = None
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
        order within a node) is part of the repair contract: replaying a
        build against an identically-scanned overlay reproduces dict
        insertion order, so recorded effects splice back deterministically.
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
        self._stored_fwd = [{} for _ in range(n)]
        self._stored_bwd = [{} for _ in range(n)]
        self._added = [[] for _ in range(n)]
        self._reduced = [[] for _ in range(n)]
        self._witness_settled = [[] for _ in range(n)]

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
            added, reduced, witness, stored_fwd, stored_bwd = self._contract_node(
                v, fwd, bwd
            )
            contracted[v] = True
            self._added[v] = added
            self._reduced[v] = reduced
            self._witness_settled[v] = sorted(witness)
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
        record: set[int],
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
        to the settle limit or cost cap.  ``record`` accumulates every
        settled node (the source included): the search outcome depends only
        on out-edges of settled nodes, so this set is exactly what the repair
        support index needs.
        """
        inf = math.inf
        dist = self._dist
        dist[source] = 0.0
        touched = [source]
        record.add(source)
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
            record.add(node)
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
    ) -> tuple[
        list[tuple[int, int, float]],
        list[tuple[int, int, float]],
        set[int],
        dict[int, float],
        dict[int, float],
    ]:
        """Contract ``v`` against the overlay and record its effects.

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

        Returns ``(added, reduced, witness, incident_fwd, incident_bwd)``:
        the overlay assignments performed, the overlay edges reduced (with
        the deleted weight), every witness-settled node, and ``v``'s
        contraction-time incident edges (which become its upward adjacency:
        every surviving endpoint outranks ``v`` by construction).
        """
        inf = math.inf
        dist = self._dist
        added: list[tuple[int, int, float]] = []
        reduced: list[tuple[int, int, float]] = []
        witness: set[int] = set()
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
            touched = self._witness_search(u, w_in + max_out, fwd, heads - {u}, witness)
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
                        added.append((u, x, through))
                elif existing is not None and witness_dist < existing:
                    # The witness path (avoiding v) beats the direct overlay
                    # edge: the edge is not a shortest path and can be
                    # dropped without changing overlay distances.
                    del fwd_u[x]
                    del bwd[x][u]
                    reduced.append((u, x, existing))
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
        return added, reduced, witness, incident_fwd, incident_bwd

    # ------------------------------------------------------------------ #
    # incremental repair
    # ------------------------------------------------------------------ #
    def repair(
        self, csr: CSRGraph
    ) -> tuple["ContractionHierarchy", CHRepairStats] | None:
        """Follow a mutated graph by re-contracting only the affected nodes.

        ``csr`` is the freshly compiled CSR of the mutated network (same
        node set as the current hierarchy).  The edges whose weight differs
        between this hierarchy's CSR and ``csr`` (reweighted, removed or
        added) seed the dirty set.  The frozen contraction order is replayed
        against the new overlay: nodes outside the dirty set re-apply their
        recorded effects, dirty nodes re-run their witness searches, and
        effect diffs cascade through the support index (see the module
        docstring).

        Returns ``(repaired, stats)`` where ``repaired`` is a *new*
        hierarchy sharing every unchanged per-node structure with this one
        (copy-on-write: the fork costs O(nodes) outer lists plus the
        re-contracted cells) -- this hierarchy stays valid for the
        pre-mutation graph, which is what lets callers keep recent states
        around and swap them back when a mutation burst reverts.  Returns
        ``None`` when the node set changed or the affected set exceeds
        :data:`REPAIR_MAX_FRACTION` of all nodes, in which case the caller
        should fall back to a full rebuild.
        """
        old_csr = self.csr
        if csr.node_ids != old_csr.node_ids:
            return None
        n = csr.num_nodes
        limit = max(int(n * REPAIR_MAX_FRACTION), 1)
        deps = self._witness_dependents
        if deps is None:
            deps = self._witness_dependents = [set() for _ in range(n)]
            for v in self._contract_order:
                for y in self._witness_settled[v]:
                    deps[y].add(v)
        rank = self.rank
        # Dirty-set seeding is direction- and rank-aware.  A weight
        # *decrease* only shortens recorded witnesses, which keeps every
        # recorded omission/reduction valid and merely leaves redundant
        # shortcuts behind -- the endpoints re-contract (their incident
        # weights changed) but no witness dependent does.  A weight
        # *increase* (removal included) can invalidate witnesses that
        # relaxed the edge, which requires the edge's head to have been
        # uncontracted at search time: only dependents ranked below the head
        # qualify.
        old_weights = {
            (u, old_csr.indices[e]): old_csr.weights[e]
            for u in range(n)
            for e in range(old_csr.indptr[u], old_csr.indptr[u + 1])
        }
        new_weights = {
            (u, csr.indices[e]): csr.weights[e]
            for u in range(n)
            for e in range(csr.indptr[u], csr.indptr[u + 1])
        }
        inf = math.inf
        dirty: set[int] = set()
        for (a, b), w_old in old_weights.items():
            w_new = new_weights.get((a, b), inf)
            if w_new == w_old:
                continue
            dirty.add(a)
            dirty.add(b)
            if w_new > w_old:
                rank_b = rank[b]
                dirty.update(z for z in deps[a] if rank[z] < rank_b)
        for a, b in new_weights:
            if (a, b) not in old_weights:  # added: a decrease from inf
                dirty.add(a)
                dirty.add(b)
        if len(dirty) > limit:
            return None

        # Copy-on-write stores: unchanged per-node records are shared with
        # this hierarchy by reference (re-contraction replaces entries with
        # fresh objects, never mutates shared ones), so the fork below is
        # cheap and an aborted repair leaves nothing to undo.
        added_store = list(self._added)
        reduced_store = list(self._reduced)
        fwd_store = list(self._stored_fwd)
        bwd_store = list(self._stored_bwd)
        witness_store = list(self._witness_settled)
        deps_store = list(deps)
        deps_touched = bytearray(n)

        def dep_set(y: int) -> set[int]:
            if not deps_touched[y]:
                deps_store[y] = set(deps_store[y])
                deps_touched[y] = 1
            return deps_store[y]

        fwd, bwd = self._overlay_from_csr(csr)
        recontracted = 0
        shortcuts_replaced = 0
        for v in self._contract_order:
            if v in dirty or fwd[v] != fwd_store[v] or bwd[v] != bwd_store[v]:
                recontracted += 1
                if recontracted > limit:
                    return None
                added, reduced, witness, sf, sb = self._contract_node(v, fwd, bwd)
                # Cascade: every overlay edge whose effect differs from the
                # recorded build can invalidate later witness decisions that
                # relaxed it, i.e. the recorded dependents of its tail --
                # with the same direction/rank pruning as the seeds: an edge
                # that only got *cheaper* cannot break a recorded witness.
                # (Endpoint incident-edge changes are caught by the replay
                # comparison when their own turn comes.)
                old_map = {(u, x): w for u, x, w in added_store[v]}
                new_map = {(u, x): w for u, x, w in added}
                old_red = {(u, x) for u, x, _ in reduced_store[v]}
                new_red = {(u, x) for u, x, _ in reduced}
                for u, x in sorted(old_map.keys() | new_map.keys() | (old_red ^ new_red)):
                    new_post = new_map.get((u, x))
                    if new_post is None:
                        new_post = fwd[u].get(x, inf)
                    if (u, x) in old_map:
                        old_post = old_map[(u, x)]
                    elif (u, x) in old_red:
                        old_post = inf
                    else:
                        old_post = None  # pre-contraction value unrecorded
                    if new_post == old_post:
                        continue
                    shortcuts_replaced += 1
                    if old_post is None or new_post > old_post:
                        rank_x = rank[x]
                        dirty.update(z for z in deps[u] if rank[z] < rank_x)
                added_store[v] = added
                reduced_store[v] = reduced
                fwd_store[v] = sf
                bwd_store[v] = sb
                old_witness = set(witness_store[v])
                witness_store[v] = sorted(witness)
                for y in old_witness - witness:  # repro-lint: disable=DET003 dep-set discard is order-insensitive; keeps the repair replay allocation-light
                    dep_set(y).discard(v)
                for y in witness - old_witness:  # repro-lint: disable=DET003 dep-set add is order-insensitive; keeps the repair replay allocation-light
                    dep_set(y).add(v)
            else:
                # Clean replay: the node's incident edges match the recorded
                # build and no witness support changed, so its recorded
                # decisions are still valid -- apply them without searching.
                # (Reductions and insertions never target the same pair
                # within one contraction, so grouping reductions first
                # reproduces the original interleaved end state.)  Both
                # effects are *guarded* against an overlay that got cheaper
                # than the recorded build (a decreased base edge whose
                # dependents were deliberately not re-contracted): a
                # recorded reduction only fires while the deleted weight
                # still matches, and a recorded assignment never overwrites
                # a smaller current value -- keeping the cheaper edge is
                # always distance-preserving, and every node whose incident
                # edges the divergence touches re-contracts at its own turn.
                for u, x, w in reduced_store[v]:
                    if fwd[u].get(x) == w:
                        del fwd[u][x]
                        del bwd[x][u]
                for u, x, w in added_store[v]:
                    cur = fwd[u].get(x)
                    if cur is None or w <= cur:
                        fwd[u][x] = w
                        bwd[x][u] = w
                for x in fwd[v]:
                    bwd[x].pop(v, None)
                for u in bwd[v]:
                    fwd[u].pop(v, None)
                fwd[v] = {}
                bwd[v] = {}

        fork = object.__new__(ContractionHierarchy)
        fork.csr = csr
        # Frozen across repairs (the whole point of the replay): the rank
        # permutation and contraction order are shared by reference.
        fork.rank = self.rank
        fork._contract_order = self._contract_order
        fork._added = added_store
        fork._reduced = reduced_store
        fork._stored_fwd = fwd_store
        fork._stored_bwd = bwd_store
        fork._witness_settled = witness_store
        fork._witness_dependents = deps_store
        fork._dist = self._dist
        return fork, CHRepairStats(
            nodes_recontracted=recontracted,
            shortcuts_replaced=shortcuts_replaced,
        )

    def estimated_memory_bytes(self) -> int:
        """Rough footprint of the upward adjacencies, the repair records and
        the search scratch."""
        entries = sum(map(len, self._stored_fwd)) + sum(map(len, self._stored_bwd))
        support = sum(len(s) for s in self._witness_settled)
        indexes = 1 if self._witness_dependents is None else 2
        # Incident dicts (the upward adjacency), the repair-support records:
        # effect lists and witness sets (forward, and inverted once a repair
        # has asked for it), and the flat ``dist`` list (8 bytes a slot).
        return (
            64 * entries + 128 * len(self.rank) + indexes * 64 * support
            + 8 * len(self._dist)
        )

