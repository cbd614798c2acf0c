"""Shortest-path (travel-time) oracle with caching and query accounting.

The paper answers ``cost(u, v)`` queries with hub labeling [50] fronted by an
LRU cache [40] and reports the number of shortest-path queries as one of the
ablation metrics (Tables V and VI).  This module reproduces that interface:

* :class:`DistanceOracle` -- an LRU pair cache and the query counters in
  front of one :class:`~repro.network.routing.backends.RoutingBackend`
  (``dijkstra`` | ``ch`` | ``hub_label``).  ``cost(u, v)`` /
  ``path(u, v)`` answer point queries and :meth:`DistanceOracle.prefetch`
  warms the cache for a source x target table in one backend batch; how a
  miss is computed, batched and validated is the backend's business.
* :class:`QueryStatistics` -- counts logical queries, cache hits and the
  number of backend searches, so experiments report the same
  "#Shortest Path Queries" column as the paper *uniformly across backends*:
  ``queries`` counts logical demand and is independent of the backend, while
  ``searches`` / ``settled_nodes`` describe the work the backend did.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, fields

from ..exceptions import NetworkError, UnreachableError
from .road_network import RoadNetwork
from .routing.backends import (
    BACKEND_NAMES,
    Distances,
    RoutingBackend,
    RoutingData,
    csr_content,
    install_routing_data,
    make_backend,
    network_fingerprint,
    routing_data,
)

#: Recent routing states an oracle keeps for refreshes that return to one.
SNAPSHOT_CAPACITY = 4


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :meth:`DistanceOracle.repair` call.

    ``mode`` tells what actually happened: ``"snapshot"`` (the mutated
    network matched a held routing state, swapped in without any
    preprocessing), ``"rebuilt"`` (a full build ran instead) or ``"noop"``
    (nothing was stale).
    """

    mode: str
    seconds: float = 0.0


@dataclass
class QueryStatistics:
    """Counters describing how the oracle has been used."""

    #: Logical ``cost``/``path`` queries issued by callers.
    queries: int = 0
    #: Queries answered directly from the LRU pair cache.
    cache_hits: int = 0
    #: Backend searches actually executed (graph searches or label joins,
    #: depending on the backend).
    searches: int = 0
    #: Total number of node settlements / label entries scanned across all
    #: searches (work proxy).
    settled_nodes: int = 0
    #: Backend-served queries answered by the Dijkstra fallback while the
    #: preprocessed structures were dirty (scenario engine; see
    #: :meth:`DistanceOracle.enable_fallback`).
    fallback_queries: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary (for reporting)."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}


class DistanceOracle:
    """Cached travel-time oracle over a :class:`RoadNetwork`.

    Parameters
    ----------
    network:
        The road network to query.
    cache_size:
        Maximum number of ``(source, target) -> cost`` entries kept in the
        LRU cache.  Every exact distance a backend search hands back is
        cached, not just the asked pair: a Dijkstra's settled set amortises
        repeated queries from popular locations (vehicle positions).
    backend:
        One of :data:`repro.network.routing.BACKEND_NAMES` (described in
        :mod:`repro.network.routing.backends`).  The CSR arrays and the
        hierarchy are shared between oracles over the same network.
    """

    def __init__(
        self,
        network: RoadNetwork,
        *,
        cache_size: int = 200_000,
        backend: str = "dijkstra",
    ) -> None:
        if cache_size < 0:
            raise NetworkError("cache_size must be non-negative")
        self._network = network
        self._cache_size = cache_size
        self._cache: OrderedDict[tuple[int, int], float] = OrderedDict()
        #: Changes exactly where an answer already returned may stop being
        #: the answer (new routing structures, fallback switch, a flushed
        #: cache, injected corruption): whoever keeps results derived from
        #: queries compares it instead of registering for invalidation.
        self.generation = 0
        self.stats = QueryStatistics()
        self._backend: RoutingBackend = make_backend(backend, routing_data(network))
        #: Fresh-CSR Dijkstra serving queries while the preprocessed
        #: structures are dirty (``None`` outside scenario fallback windows).
        self._fallback: RoutingBackend | None = None
        #: Content-addressed LRU of recent routing states (see :meth:`rebuild`
        #: / :meth:`repair`): edge-content signature -> RoutingData.
        self._snapshots: OrderedDict[tuple, RoutingData] = OrderedDict()
        #: :meth:`top_speed` of the routing state it was worked out on.
        self._top_speed: tuple[RoutingData | None, float] = (None, 0.0)
        #: Where computed queries are traced (:meth:`set_query_tracing`);
        #: ``None`` when untraced, so the miss path's guard is one test.
        self._trace_tracer: object | None = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def backend_name(self) -> str:
        """Name of the configured routing backend."""
        return self._backend.name

    # ------------------------------------------------------------------ #
    # dynamic-world refresh (scenario engine)
    # ------------------------------------------------------------------ #
    @property
    def is_stale(self) -> bool:
        """True when the network mutated after the structures serving queries.

        While the Dijkstra fallback is active, staleness is judged against
        the fallback's CSR snapshot (the preprocessed structures are dirty by
        definition then, but queries are still answered exactly).
        """
        serving = self._fallback or self._backend
        return serving.data.fingerprint != network_fingerprint(self._network)

    @property
    def serving_fallback(self) -> bool:
        """True while queries are answered by the Dijkstra fallback."""
        return self._fallback is not None

    def rebuild(self) -> float:
        """Rebuild the routing structures against the current network.

        Drops the pair cache and the Dijkstra fallback, serves the shared
        :func:`routing_data` (a ``ch`` / ``hub_label`` constructor builds the
        hierarchy and every label) and returns the wall-clock seconds spent, which the
        scenario refresh policies account as rebuild time.

        A held state a build would reproduce bit for bit is adopted instead
        (its CSR equals the fresh compile, row order included): a receded
        traffic wave returns to one, a reopened road does not (its edge moves
        to the end of its row).
        ``dijkstra``, which holds no hierarchy, skips the lookup.

        Exception-safe: the new backend is fully constructed before any held
        state is dropped, so a build that raises leaves the oracle serving
        its previous structures -- the caller may retry or enter the fallback.
        """
        start = time.perf_counter()
        self._refresh(same_rows=True)
        return time.perf_counter() - start

    def repair(self) -> RepairReport:
        """Follow network mutations at once, by snapshot swap or full build.

        The mutated network's edge content is looked up in the LRU of recent
        routing states :meth:`rebuild` adopts from (row order is not
        compared: equal content means equal distances).  Exact reversions --
        a wave receding, a closed road reopening at its recorded cost --
        swap the held CSR / hierarchy / labels back in O(E log E) signature
        time, with zero preprocessing; any other burst serves a full build.
        ``dijkstra``, which holds no hierarchy, skips the lookup.

        Drops the pair cache and the fallback and registers the new state
        like :meth:`rebuild`.  Returns a :class:`RepairReport` describing
        what happened.
        """
        start = time.perf_counter()
        if self._fallback is None and not self.is_stale:
            return RepairReport(mode="noop")
        swapped = self._refresh(same_rows=False)
        return RepairReport(
            mode="snapshot" if swapped else "rebuilt", seconds=time.perf_counter() - start
        )

    def _refresh(self, *, same_rows: bool) -> bool:
        """Serve the held state for the network's content -- only if its CSR
        rows equal the fresh compile too, when ``same_rows`` -- else the
        fresh :func:`routing_data`; True when a held state was served."""
        data, key, held = routing_data(self._network), None, None
        if self._backend.data.has_hierarchy:
            key, held = self._held(data)
            if held is not None and same_rows and held.csr != data.csr:
                held = None
        self._serve(held or data, key)
        return held is not None

    def _held(self, data: RoutingData) -> tuple[tuple, RoutingData | None]:
        """The content of ``data`` and the state held for it; first holds the
        state the constructor served (:meth:`_serve` holds the rest)."""
        serving = self._backend.data
        held = self._snapshots.values()
        if serving.has_hierarchy and all(state is not serving for state in held):
            self._remember(csr_content(serving.csr), serving)
        key = csr_content(data.csr)
        return key, self._snapshots.get(key)

    def _serve(self, data: RoutingData, key: tuple | None = None) -> None:
        """Serve ``data`` as the network's routing state, held under ``key``
        if a hierarchy hangs off it.

        The backend is constructed *before* any held state is dropped: a
        build that raises partway must leave the oracle on its previous
        structures, never with a cleared cache and no backend."""
        backend = make_backend(self._backend.name, data)
        install_routing_data(self._network, data)
        self.clear_cache()
        self._fallback = None
        self._backend = backend
        if key is not None and data.has_hierarchy:
            self._remember(key, data)

    def _remember(self, key: tuple, data: RoutingData) -> None:
        self._snapshots[key] = data
        self._snapshots.move_to_end(key)
        while len(self._snapshots) > SNAPSHOT_CAPACITY:
            self._snapshots.popitem(last=False)

    def enable_fallback(self) -> None:
        """Serve queries exactly via a fresh-CSR Dijkstra, deferring rebuild.

        Compiling the CSR arrays is O(V + E) and orders of magnitude cheaper
        than re-contracting the hierarchy or re-extracting labels, so a
        refresh policy can make a mutation burst *consistent* immediately and
        schedule the expensive rebuild for later.  Queries served this way
        are counted in ``stats.fallback_queries``.  A no-op when the current
        fallback already matches the network.
        """
        data = routing_data(self._network)
        if self._fallback is not None and self._fallback.data is data:
            return
        self.clear_cache()
        self._fallback = make_backend("dijkstra", data)

    def top_speed(self) -> float:
        """``max(euclidean(u, v) / w)`` over the edges of the serving routing
        state, plus a 1e-9 relative margin (``inf`` if no edge bounds it): no
        cost is below ``euclidean(source, target) / top_speed()``.  Worked out
        on first use per state, so it follows a refresh or the fallback."""
        data = (self._fallback or self._backend).data
        if self._top_speed[0] is not data:
            csr, euclidean, ids = data.csr, self._network.euclidean, data.csr.node_ids
            speeds = (euclidean(ids[u], ids[v]) / w if w > 0 else math.inf
                      for u in range(csr.num_nodes) for v, w in csr.out_edges(u))
            self._top_speed = (data, max(speeds, default=0.0) * (1 + 1e-9) or math.inf)
        return self._top_speed[1]

    def lower_bound(self, source: int, target: int) -> float:
        """No :meth:`cost` from ``source`` to ``target`` is below this: the
        straight-line distance driven at :meth:`top_speed`.  A check that
        refuses on it before pricing a leg refuses exactly what the leg's
        cost would have refused."""
        return self._network.euclidean(source, target) / self.top_speed()

    def set_query_tracing(self, tracer: object | None) -> None:
        """Record every point query the backend answers (cache hits are not
        backend latency) as an ``oracle.query`` event of ``tracer`` -- serving
        backend, settled nodes, wall-clock latency -- and every
        :meth:`prefetch` batch as one ``oracle.many_to_many`` event.

        ``tracer`` has an ``event(name, *, duration, **tags)`` method (see
        :class:`repro.observability.SpanTracer`); ``None`` or a disabled
        tracer turns tracing off.
        """
        self._trace_tracer = tracer if getattr(tracer, "enabled", False) else None

    def cost(self, source: int, target: int) -> float:
        """Minimum travel time from ``source`` to ``target`` in seconds.

        Returns ``math.inf`` when the target is unreachable (the feasibility
        checks interpret an infinite cost as "not shareable / not insertable"
        rather than raising).
        """
        self.stats.queries += 1
        if source == target:
            self._require(source)
            return 0.0
        cached = self._cache_get((source, target))
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        return self._compute(source, target)

    def path(self, source: int, target: int) -> list[int]:
        """Sequence of nodes of a shortest path from ``source`` to ``target``.

        One search on every backend: a CSR Dijkstra that keeps parent
        pointers (``ch`` and ``hub_label`` run it too, their hierarchy
        records no paths).  Always asks the backend (a cached distance has
        no node sequence) and caches what the backend hands back -- the
        settled set on ``dijkstra``, the asked pair on ``ch`` /
        ``hub_label``.  Raises :class:`UnreachableError` if no path exists.
        """
        self.stats.queries += 1
        if source == target:
            self._require(source)
            return [source]
        backend = self._fallback or self._backend
        nodes, settled, learned = backend.path(source, target)
        self._account(backend, 1, settled, 1, learned)
        if nodes is None:
            raise UnreachableError(f"node {target} is unreachable from {source}")
        return nodes

    def prefetch(self, sources: Sequence[int], targets: Sequence[int]) -> None:
        """Warm the pair cache for ``sources`` x ``targets`` in bulk.

        An optimisation hint, not caller demand: the cache misses go to the
        backend as one batch, which it answers its own way (see
        :class:`~repro.network.routing.backends.RoutingBackend`), and the
        work is counted in ``searches`` / ``settled_nodes``, but the
        ``queries`` / ``cache_hits`` counters are left untouched so the paper's
        "#Shortest Path Queries" column keeps reflecting the *logical* query
        pattern of the dispatch algorithms, independent of cache warming.
        """
        sources, targets = list(dict.fromkeys(sources)), list(dict.fromkeys(targets))
        for node in (*sources, *targets):
            self._require(node)
        if self._cache_size == 0:
            return
        missing = [
            (source, target) for source in sources for target in targets
            if source != target and self._cache_get((source, target)) is None
        ]
        if not missing:
            return
        backend = self._fallback or self._backend
        start = time.perf_counter() if self._trace_tracer is not None else None
        learned, searches, settled = backend.many_to_many(missing)
        self._account(backend, searches, settled, len(missing), learned)
        if start is not None:
            self._trace("oracle.many_to_many", start, backend, settled=settled, pairs=len(missing))

    def clear_cache(self) -> None:
        """Drop every cached distance and start a new :attr:`generation`."""
        self._cache.clear()
        self.generation += 1

    @property
    def cache_len(self) -> int:
        """Current number of cached ``(source, target)`` pairs."""
        return len(self._cache)

    def estimated_memory_bytes(self) -> int:
        """Rough memory footprint of the cache, the backend's structures and
        every other routing state held for a reversion."""
        held = [d for d in self._snapshots.values() if d is not self._backend.data]
        # Each cache entry: two ints + a float + dict overhead, ~100 bytes is
        # a fair order-of-magnitude figure for CPython.
        return 100 * len(self._cache) + sum(
            part.estimated_memory_bytes() for part in (self._backend, *held)
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _require(self, node: int) -> None:
        """Refuse an unknown ``node`` on the one answer (``node -> node``)
        the oracle gives without asking the backend."""
        (self._fallback or self._backend).data.csr.require_index(node)

    def _cache_get(self, key: tuple[int, int]) -> float | None:
        if self._cache_size == 0:
            return None
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
        return value

    def _account(
        self,
        backend: RoutingBackend,
        searches: int,
        settled: int,
        pairs: int,
        learned: Distances,
    ) -> None:
        """Book one backend call: the counters, then ``learned`` into the LRU
        (in the backend's order, oldest entries evicted once over capacity)."""
        stats = self.stats
        stats.searches += searches
        stats.settled_nodes += settled
        if backend is self._fallback:
            stats.fallback_queries += pairs
        size = self._cache_size
        if size:
            cache = self._cache
            for key, value in learned.items():
                cache[key] = value
                cache.move_to_end(key)
            while len(cache) > size:
                cache.popitem(last=False)

    def _compute(self, source: int, target: int) -> float:
        backend = self._fallback or self._backend
        start = time.perf_counter() if self._trace_tracer is not None else None
        distance, settled, learned = backend.one_to_one(source, target)
        self._account(backend, 1, settled, 1, learned)
        if start is not None:
            self._trace("oracle.query", start, backend, settled=settled)
        return distance

    def _trace(self, name: str, start: float, backend: RoutingBackend, **tags: int) -> None:
        self._trace_tracer.event(  # type: ignore[union-attr]
            name, duration=time.perf_counter() - start, backend=backend.name,
            fallback=backend is self._fallback, **tags,
        )


__all__ = ["DistanceOracle", "QueryStatistics", "RepairReport", "BACKEND_NAMES"]
