"""Microbenchmark of the pluggable routing backends.

Times every backend of :class:`repro.network.shortest_path.DistanceOracle`
(``dijkstra`` | ``ch`` | ``hub_label``) on the same batch of
repeated ``cost(u, v)`` queries over the NYC synthetic city at the default
workload scale, with the LRU pair cache disabled so the raw per-query rate of
each backend is what gets measured.  Asserted alongside the timings:

* the preprocessed backends return the identical float as plain Dijkstra
  (every weight is on the time grid, so sums are exact), and the ``hub_label`` backend is at least 5x faster on
  repeated cost queries (measured ~70x; with the headline comparison's
  dispatch times, one of the two timed assertions CI makes);
* ``path()`` is exact on every backend: the returned node sequence sums to
  the reference distance edge by edge;
* ``settled/q`` -- settled nodes / walked label entries per query, a count
  that repeats exactly -- equals the committed ``oracle_backends.json`` on
  every backend, so a node-ordering or stall-on-demand regression in the CH
  preprocessor fails the run instead of hiding in wall-clock noise;
* the shape of the ``ch`` build -- its upward edges, a count that repeats
  exactly -- equals the committed file too, so a build change that adds or
  drops a shortcut fails here (``build ms`` is reported, never gated);
* every dispatcher produces *identical assignments* across all three backends
  on a fixed-seed scenario, so switching backends is purely a performance
  decision.

The table also records preprocessing time (``build ms``).  The timed loop runs
after a warm-up pass over the same pairs; that pass is timed too (``first
us``), so the price of a cold pair sits beside the warm one.  ``ch`` and
``hub_label`` are one backend over one label store under two names; both
rows stay, because the ledger asks for ``ch``.

Run directly (``python benchmarks/bench_oracle_backends.py``) for the full
table, which rewrites the committed ``results/oracle_backends.{txt,json}``,
or through pytest like the other benchmarks, which compares its counts with
that committed copy and writes its own under the test's ``tmp_path``.
"""

from __future__ import annotations

import json
import math
import random
import time

from repro.dispatch import make_dispatcher
from repro.network.generators import make_city
from repro.network.routing.backends import routing_data
from repro.network.shortest_path import DistanceOracle
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind
from repro.workloads.presets import make_workload

from _common import RESULTS_DIR, save_json, save_text

#: All routing backends, reference (``dijkstra``) first.
BACKENDS = ("dijkstra", "ch", "hub_label")
#: The default city scale of :func:`repro.workloads.presets.make_workload`.
CITY_SCALE = 0.7
#: Number of distinct (source, target) pairs and repetitions per backend.
NUM_PAIRS = 300
REPEATS = 3
#: Required speedup of the hub_label backend over plain Dijkstra.
REQUIRED_SPEEDUP = 5.0

#: Recorded history of targeted optimisations, kept in the results file so
#: regeneration does not erase the before/after evidence.
HISTORY = (
    "History (same machine, NYC scale 0.7):",
    "  PR 3: CH upward adjacency flattened (CSR arrays + per-node tuple "
    "views) and query state moved to version-stamped flat arrays: "
    "ch 82.9 -> 67.6 us/query (settled/q unchanged at 48.5).",
    "  PR 5: CH build records repair-support effects (shortcuts, reductions, "
    "witness sets) for incremental repair: ch build 59.9 -> 63.3 ms, query "
    "us unchanged.",
    "  PR 8: observability: sampled query tracing sits behind a single "
    "falsy-int guard in the oracle hot path; us/query unchanged on every "
    "backend with tracing off.  Results are also written to "
    "oracle_backends.json.",
    "  PR 22: ch answers from per-node upward search spaces swept on first "
    "touch and kept on the backend, instead of one bidirectional search per "
    "pair: the timed loop now times label joins only, ch 69.6 -> 3.5 "
    "us/query (settled/q 48.5 -> 20.4, now label entries walked -- other "
    "units, not comparable).  New `first us` column: the warm-up pass over "
    "the same pairs, where nearly every pair is cold and pays two exhaustive "
    "sweeps against the old single pruned search: ch 92.3 us (the parent's "
    "ch row read 88-94 us/query in the same session, at dijkstra 238-243; on "
    "this city a cold pair costs what every ask used to cost).",
    "  PR 23: hub_label is ch over a shared store swept at set-up (dict "
    "labels, one join; sorted-list merge and bucket join deleted): "
    "hub_label 4.5-5.3 -> 2.4-3.1 us/query, first 8.6-9.2 -> 4.0-5.6 us, "
    "settled/q 35.6 (entries merged) -> 20.4 (entries walked, as ch), build "
    "90-103 -> 86-117 ms, unresolved (parent run three times, this tree five, "
    "one session, dijkstra 165-198).",
    "  PR 24: path() is the CSR Dijkstra on every backend (the hierarchy "
    "keeps no shortcut middles, no bidirectional search, no unpacker); cost "
    "queries untouched, settled/q equal on all four rows.  The >30% us/query "
    "CI gate is gone: this run fails instead when a backend's settled/q "
    "differs from the committed oracle_backends.json.  Seven runs in one "
    "session on identical code: dijkstra 184-302 us/query, hub_label speedup "
    "43-84x, settled/q identical every time.",
    "  PR 25: witness searches and upward sweeps on one flat dist list "
    "(reset per search), no per-edge skip / contracted tests, nothing above "
    "the cost cap pushed or written: ch build 57-105 -> 42-50 ms (medians of "
    "7 oracle builds, three alternating rounds per tree, one session); the "
    "build shape (shortcuts, witness-settled) is now gated like settled/q; "
    "settled/q equal on all four rows.",
    "  Resumable sweeps: ch keeps each node's upward sweep paused, and a join "
    "advances the two endpoints' sweeps only while a frontier is below the best "
    "meeting distance (distances bit-identical): ch settled/q 20.4 -> 17.3 "
    "(entries walked plus entries labelled).  Timed against the parent in "
    "one process, 15 alternating rounds: ch first 104.5 -> 105.0 us (6/15 "
    "ahead), warm 4.85 -> 4.80 us (10/15) -- 300 random pairs on this city "
    "sweep most labels nearly in full, so the saving shows on the ledger's "
    "chd_ch_cold instead (seed 0: settled nodes 261632 -> 66121).  "
    "dijkstra's point-to-point search is CSRGraph.sssp now: first 363.3 -> "
    "306.1 us (14/15).  hub_label's label sweeps at set-up, 9 rounds: this "
    "city +0-6% (1-3/9 ahead), scale 1.0 and chd 1.2 at parity or faster.",
    "  One-pass labels: hub_label's set-up labels come from one rank-order "
    "numpy pass per direction over the hierarchy (blocks of 128 sources), not "
    "2n upward sweeps.  Joins equal the sweeps' bit for bit; a label may keep "
    "or drop a hub no join uses, so hub_label settled/q 20.4 -> 20.5.  build "
    "ms, three alternating rounds on one host: hub_label 133-149 -> 83-123 "
    "(the CH build, 78-84 ms on ch, is inside both).",
    "  One label store: ch answers from the shared one-pass labels, as "
    "hub_label does, and the paused upward sweeps are deleted.  Distances "
    "unchanged; ch settled/q 17.3 -> 20.5 (entries walked over complete "
    "labels, hub_label's count).  Three alternating rounds on one host: ch "
    "first 82-141 -> 4.3-4.9 us, build 69-89 -> 83-114 ms (the CH build plus "
    "the label pass).",
    "  Repair records deleted: the CH build keeps ranks, order and the upward "
    "adjacency only; the incremental repair and the effect / witness records "
    "of PR 5 are gone.  The build-shape gate is now the upward-edge count "
    "(3411), because the shortcut and witness-settled counts were read off "
    "those records.  Retained memory of one build (tracemalloc): 0.53 -> 0.25 "
    "MiB on this city, 4.45 -> 1.92 MiB on chd 1.2.  Build ms within noise "
    "(medians of 7 builds, three alternating rounds, 2 vCPUs: 70-75 -> "
    "55-70 ms).",
)

#: Fixed-seed scenario used by the cross-backend assignment check.
SCENARIO = {"num_requests": 150, "num_vehicles": 24}
ALGORITHMS = ("pruneGDP", "TicketAssign+", "DARM+DPRS", "RTV", "GAS", "SARD")


def measure_backends() -> list[dict]:
    """Time every backend on the same query batch; returns one row each."""
    rng = random.Random(7)
    nodes = list(make_city("nyc", scale=CITY_SCALE).nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(NUM_PAIRS)]
    rows: list[dict] = []
    reference: dict[tuple[int, int], float] = {}
    for name in BACKENDS:
        # A fresh (identical) city per backend so shared preprocessing from a
        # previous backend cannot hide this backend's true build cost.
        city = make_city("nyc", scale=CITY_SCALE)
        build_start = time.perf_counter()
        oracle = DistanceOracle(city, cache_size=0, backend=name)
        build_seconds = time.perf_counter() - build_start
        first_start = time.perf_counter()
        costs = {pair: oracle.cost(*pair) for pair in pairs}
        first_seconds = time.perf_counter() - first_start
        oracle.stats.reset()
        query_start = time.perf_counter()
        for _ in range(REPEATS):
            for u, v in pairs:
                oracle.cost(u, v)
        query_seconds = time.perf_counter() - query_start
        settled_per_query = oracle.stats.settled_nodes / oracle.stats.searches
        if name == "dijkstra":
            reference = costs
        max_error = max(
            abs(costs[pair] - reference[pair])
            for pair in pairs
            if math.isfinite(reference[pair])
        )
        # path() must be exact on every backend.
        for u, v in pairs[:25]:
            if not math.isfinite(reference[(u, v)]):
                continue
            path = oracle.path(u, v)
            total = sum(city.edge_cost(a, b) for a, b in zip(path, path[1:]))
            assert total == reference[(u, v)], (name, u, v)
        row = {
            "backend": name,
            "build_ms": build_seconds * 1e3,
            "first_touch_us": first_seconds / NUM_PAIRS * 1e6,
            "query_us": query_seconds / (REPEATS * NUM_PAIRS) * 1e6,
            "queries_per_s": REPEATS * NUM_PAIRS / query_seconds,
            "settled_per_query": settled_per_query,
            "max_error": max_error,
        }
        if name == "ch":
            hierarchy = routing_data(city).hierarchy
            row["upward_edges"] = sum(map(len, hierarchy._stored_fwd + hierarchy._stored_bwd))
        rows.append(row)
    baseline = rows[0]["query_us"]
    for row in rows:
        row["speedup"] = baseline / row["query_us"]
    return rows


def results_payload(rows: list[dict]) -> dict:
    """Machine-readable twin of the text table (``oracle_backends.json``).

    ``rows[*].settled_per_query`` and the ``ch`` row's ``upward_edges`` are
    what :func:`test_backend_speedup` compares with the committed file; the
    timings ride along.
    """
    return {
        "benchmark": "oracle_backends",
        "city_scale": CITY_SCALE,
        "num_pairs": NUM_PAIRS,
        "repeats": REPEATS,
        "query_us": {row["backend"]: row["query_us"] for row in rows},
        "rows": rows,
    }


def format_table(rows: list[dict]) -> str:
    lines = [
        "Routing backend microbenchmark "
        f"(NYC city at scale {CITY_SCALE}, {NUM_PAIRS} pairs x {REPEATS}, cache off)",
        f"{'backend':12s} {'build ms':>9s} {'query us':>9s} {'first us':>9s} "
        f"{'queries/s':>10s} "
        f"{'speedup':>8s} {'settled/q':>10s} {'max |err|':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row['backend']:12s} {row['build_ms']:9.1f} "
            f"{row['query_us']:9.1f} {row['first_touch_us']:9.1f} "
            f"{row['queries_per_s']:10.0f} {row['speedup']:7.1f}x "
            f"{row['settled_per_query']:10.1f} {row['max_error']:10.2e}"
        )
    ch = next(row for row in rows if row["backend"] == "ch")
    lines.append(f"ch build shape: {ch['upward_edges']} upward edges")
    lines.append("")
    lines.extend(HISTORY)
    return "\n".join(lines)


def _assignments(workload, algorithm: str, backend: str) -> list[tuple[int, int]]:
    """Sorted (request, vehicle) assignment pairs of one fixed-seed run."""
    simulator = Simulator(
        network=workload.network,
        oracle=workload.fresh_oracle(backend=backend),
        vehicles=workload.fresh_vehicles(),
        requests=list(workload.requests),
        dispatcher=make_dispatcher(algorithm),
        config=workload.simulation_config,
        record_events=True,
    )
    result = simulator.run()
    return sorted(
        (event.subject, event.other)
        for event in result.events.of_kind(EventKind.REQUEST_ASSIGNED)
    )


def verify_identical_assignments() -> dict[str, int]:
    """Assert every dispatcher assigns identically under all backends."""
    workload = make_workload(
        "nyc", city_scale=CITY_SCALE, workload_overrides=dict(SCENARIO)
    )
    assigned_counts: dict[str, int] = {}
    for algorithm in ALGORITHMS:
        reference = _assignments(workload, algorithm, BACKENDS[0])
        for backend in BACKENDS[1:]:
            assignments = _assignments(workload, algorithm, backend)
            assert assignments == reference, (
                f"{algorithm}: backend {backend!r} diverged from "
                f"{BACKENDS[0]!r} ({len(assignments)} vs {len(reference)} pairs)"
            )
        assigned_counts[algorithm] = len(reference)
    return assigned_counts


# ---------------------------------------------------------------------- #
# pytest entry points (mirroring the other benchmark modules)
# ---------------------------------------------------------------------- #
def test_backend_speedup(tmp_path):
    committed = json.loads((RESULTS_DIR / "oracle_backends.json").read_text())
    rows = measure_backends()
    by_name = {row["backend"]: row for row in rows}
    counted = ("settled_per_query", "upward_edges")

    def counts(table: list[dict]) -> dict:
        return {row["backend"]: [row.get(key) for key in counted] for row in table}

    assert counts(committed["rows"]) == counts(rows)
    assert all(row["max_error"] == 0.0 for row in rows)
    assert by_name["hub_label"]["speedup"] >= REQUIRED_SPEEDUP, (
        f"hub_label only {by_name['hub_label']['speedup']:.1f}x faster "
        f"than dijkstra (need {REQUIRED_SPEEDUP}x)"
    )
    # Node-ordering / stall-on-demand regression gate: a warm CH query
    # walks the smaller of two stall-pruned labels, a small fraction of
    # Dijkstra's work (measured ~20 entries vs ~160 settled nodes per query
    # at city scale 0.7).
    assert (
        by_name["ch"]["settled_per_query"]
        < by_name["dijkstra"]["settled_per_query"] / 2
    ), by_name["ch"]["settled_per_query"]
    save_text("oracle_backends", format_table(rows), tmp_path)
    save_json("oracle_backends", results_payload(rows), tmp_path)


def test_identical_assignments_across_backends():
    counts = verify_identical_assignments()
    # The scenario must actually exercise the dispatchers.
    assert all(count > 0 for count in counts.values())


def main() -> None:
    rows = measure_backends()
    table = format_table(rows)
    counts = verify_identical_assignments()
    lines = [table, "", "Cross-backend assignment check (fixed-seed NYC scenario):"]
    for algorithm, count in counts.items():
        lines.append(
            f"  {algorithm:14s} {count:4d} assignments -- identical on "
            + ", ".join(BACKENDS)
        )
    save_text("oracle_backends", "\n".join(lines))
    save_json("oracle_backends", results_payload(rows))


if __name__ == "__main__":
    main()
