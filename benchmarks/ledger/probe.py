"""LayerProbe: per-layer spans and counters, recorded from outside the program.

The probe wraps *public* callables of ``repro`` -- methods on their class,
by-name-imported functions by replacing every ``repro.*`` module attribute
that ``is`` the original -- and restores them when it is removed.  Each
wrapper books the call under a ledger row:

* every site counts calls and accumulates **self** seconds -- the call's
  duration minus the part covered by wrapped callees, tracked through one
  parent stack shared by all sites, so the rows partition the traced time --
  and **total** seconds, callees included (the caller's view of a stage);
* coarse sites (a handful of calls per batch) also record a span -- name,
  start, end, parent span and the batch index as the shared identifier --
  kept in memory until the run ends.

No private (``_``-prefixed) function is wrapped; tracing inside the program
is a later change.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import repro
from repro.network.routing import (
    CHBackend,
    ContractionHierarchy,
    GraphSearchBackend,
    HubLabelBackend,
    HubLabeling,
    RoutingData,
)
from repro.scenarios import OracleRefreshPolicy, WorldEvent
from repro.shareability import residual_shareability_loss, sharing_ratio

_EMPTY_ROW = (0, 0.0, 0.0)

#: ``observe(probe, args, result)`` hooks run after a successful call.
Observe = Callable[["LayerProbe", tuple, object], None]


@dataclass(frozen=True)
class Site:
    """One wrapped callable: ``owner.attr`` (a method) or ``target`` (a function)."""

    row: str
    owner: type | None = None
    attr: str = ""
    target: Callable | None = None
    span: bool = False
    observe: Observe | None = None


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for child in cls.__subclasses__():
        yield from _subclasses(child)


def _methods(row: str, classes, attrs, **options) -> list[Site]:
    """Sites for every ``attr`` that one of ``classes`` defines itself."""
    return [
        Site(row, owner=cls, attr=attr, **options)
        for cls in classes
        for attr in attrs
        if attr in vars(cls)
    ]


def _count(key: str, amount: Callable[[tuple, object], float]) -> Observe:
    def observe(probe: "LayerProbe", args: tuple, result: object) -> None:
        probe.counts[key] = probe.counts.get(key, 0) + amount(args, result)

    return observe


def _note_batch(probe: "LayerProbe", args: tuple, result: object) -> None:
    probe.batch = args[1].index


def _note_pair(probe: "LayerProbe", args: tuple, result: object) -> None:
    probe.pairs.add((args[1], args[2]))


def setup_sites() -> list[Site]:
    """Routing preprocessing, wrapped while the workload is being built."""
    return _methods(
        "network.routing.build",
        (RoutingData, ContractionHierarchy, HubLabeling),
        ("__init__",),
    )


def replay_sites() -> list[Site]:
    """Every layer boundary a replay crosses."""
    dispatchers = set(repro.DISPATCHER_REGISTRY.values())
    return [
        Site("service.submit", repro.DispatchService, "submit"),
        Site("service.tick", repro.DispatchService, "tick", span=True),
        Site("service.lifecycle", repro.DispatchService, "start", span=True),
        Site("service.lifecycle", repro.DispatchService, "shutdown", span=True),
        Site(
            "simulation.process_batch", repro.Simulator, "process_batch",
            span=True, observe=_note_batch,
        ),
        Site("model.advance_to", repro.Vehicle, "advance_to"),
        Site("model.route_state", repro.Vehicle, "route_state"),
        Site("model.assign_schedule", repro.Vehicle, "assign_schedule"),
        Site("model.schedule_evaluate", repro.Schedule, "evaluate"),
        *_methods(
            "dispatch.dispatch", dispatchers, ("dispatch",), span=True,
            observe=_count("pending", lambda args, _: len(args[1].pending)),
        ),
        Site(
            "dispatch.candidate_vehicles",
            target=repro.dispatch.candidate_vehicles,
            observe=_count("candidates", lambda _, found: len(found)),
        ),
        Site(
            "shareability.update", repro.DynamicShareabilityGraphBuilder,
            "update", span=True,
            observe=_count("new_requests", lambda args, _: len(args[1])),
        ),
        Site("shareability.remove", repro.DynamicShareabilityGraphBuilder, "remove"),
        Site("shareability.loss", target=residual_shareability_loss),
        Site("shareability.loss", target=sharing_ratio),
        Site("shareability.loss", target=repro.shareability_loss),
        Site("grouping.build_groups", target=repro.build_groups),
        Site(
            "insertion.best_insertion", target=repro.best_insertion,
            observe=_count("feasible", lambda _, outcome: outcome.feasible),
        ),
        Site("insertion.best_pair_schedule", target=repro.best_pair_schedule),
        Site("network.grid_index.query_radius", repro.GridIndex, "query_radius"),
        Site("network.grid_index.move", repro.GridIndex, "move"),
        Site("network.oracle.cost", repro.DistanceOracle, "cost", observe=_note_pair),
        Site("network.oracle.prefetch", repro.DistanceOracle, "prefetch"),
        Site("scenarios.rebuild", repro.DistanceOracle, "rebuild", span=True),
        Site("scenarios.rebuild", repro.DistanceOracle, "repair", span=True),
        *_methods(
            "network.routing.search",
            (CHBackend, HubLabelBackend, GraphSearchBackend),
            ("one_to_one", "many_to_many", "path", "search", "search_multi"),
        ),
        *_methods(
            "scenarios.step",
            _subclasses(OracleRefreshPolicy),
            ("on_batch_start", "on_mutations", "finalize"),
        ),
        *_methods("scenarios.step", _subclasses(WorldEvent), ("apply",)),
    ]


class LayerProbe:
    """Install with ``with LayerProbe(sites) as probe:``; read the rows after."""

    def __init__(self, sites: list[Site]) -> None:
        self._sites = sites
        #: row -> [calls, self seconds, total seconds]
        self.rows: dict[str, list] = {}
        #: Free-form counters filled by the sites' ``observe`` hooks.
        self.counts: dict[str, float] = {}
        #: Distinct (source, target) pairs asked of ``DistanceOracle.cost``.
        self.pairs: set[tuple[int, int]] = set()
        #: Finished spans: (row, start, end, parent span index, batch index).
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        #: Index of the batch being processed (the spans' shared identifier).
        self.batch: int | None = None
        #: Every replaced attribute: (namespace, attribute name, original).
        self.patched: list[tuple[object, str, object]] = []
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []

    # ------------------------------------------------------------------ #
    def calls(self, row: str) -> int:
        """Number of calls booked under ``row``."""
        return self.rows.get(row, _EMPTY_ROW)[0]

    def self_s(self, row: str) -> float:
        """Accumulated self seconds booked under ``row``."""
        return self.rows.get(row, _EMPTY_ROW)[1]

    def total_s(self, row: str) -> float:
        """Accumulated seconds of the calls booked under ``row``, callees
        included (sites of one row must not nest for this to be exact)."""
        return self.rows.get(row, _EMPTY_ROW)[2]

    def restored(self) -> bool:
        """True when every attribute the probe replaced is its original again."""
        return all(
            vars(namespace)[attr] is original
            for namespace, attr, original in self.patched
        )

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerProbe":
        for site in self._sites:
            if site.owner is not None:
                self._patch(site.owner, site.attr, site)
                continue
            for name, module in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is site.target:
                        self._patch(module, attr, site)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for namespace, attr, original in self.patched:
            setattr(namespace, attr, original)

    def _patch(self, namespace: object, attr: str, site: Site) -> None:
        original = vars(namespace)[attr]
        self.patched.append((namespace, attr, original))
        setattr(namespace, attr, self._wrap(site, original))

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        cell = self.rows.setdefault(site.row, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        if not site.span and site.observe is None:
            # The hot variant: oracle.cost and Schedule.evaluate run
            # millions of times, so nothing but the bookkeeping is here.
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    frames.pop()
                    cell[0] += 1
                    cell[1] += elapsed - frame[0]
                    cell[2] += elapsed
                    if frames:
                        frames[-1][0] += elapsed

            return hot

        row, span, observe = site.row, site.span, site.observe
        spans, open_spans = self.spans, self._open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                parent = open_spans[-1] if open_spans else None
                index = len(spans)
                spans.append((row, 0.0, 0.0, parent, None))
                open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, result)
                return result
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                cell[0] += 1
                cell[1] += elapsed - frame[0]
                cell[2] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[index] = (row, start, end, parent, self.batch)

        return wrapper

    # ------------------------------------------------------------------ #
    def spans_jsonl(self) -> Iterator[dict]:
        """The recorded spans as JSON-ready dictionaries."""
        for index, (row, start, end, parent, batch) in enumerate(self.spans):
            yield {
                "span": index, "name": row, "start": start, "end": end,
                "parent": parent, "batch": batch,
            }
