"""The ledger's metric catalogue: names, units, directions, bounds, predictions.

``BENCHMARK.json`` repeats the name / unit / direction (and, end to end, the
bound) of every metric listed here; ``test_ledger.py`` keeps the two equal.
The layer each per-layer metric belongs to is the prefix of its name, and
``moves`` is the prediction written down before measuring: which end-to-end
metric the row should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse when
    #: the two sides are medians over *different seeds* (the driver's gate,
    #: what ``BENCHMARK.json`` carries).
    bound: float
    #: The same for two ledgers of the *same seed* (``compare.py``); ``None``
    #: for metrics that repeat exactly per seed and are compared exactly.
    same_seed_bound: float | None
    meaning: str

    @property
    def exact(self) -> bool:
        """Repeats exactly for a given seed."""
        return self.same_seed_bound is None


@dataclass(frozen=True)
class PerLayer:
    """``x_s`` rows are self seconds (the call minus its wrapped callees) and
    partition the traced wall time; ``x_total_s`` rows include the callees --
    the caller's view of a stage -- and overlap the rows of the layers below."""

    name: str
    unit: str
    better: str
    moves: str
    #: A self-seconds row; their sum over the wall time is ``trace.coverage``.
    partition: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("requests_per_s", "req/s", "higher", 0.25, 0.10,
             "requests submitted / time from start() to shutdown() returning"),
    EndToEnd("tick_ms_p50", "ms", "lower", 0.25, 0.10,
             "median time of a service.tick() that processed a window; the "
             "operator needs tick << the 3 s batch period"),
    EndToEnd("service_rate", "ratio", "higher", 0.10, None,
             "assigned / accepted, as ServiceStats defines it"),
    EndToEnd("unified_cost", "sim-s", "lower", 0.15, None,
             "Equation 3: fleet travel time + penalty of unserved requests"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, 0.10,
             "child-process ru_maxrss after the timed replays"),
    EndToEnd("setup_s", "s", "lower", 0.25, 0.15,
             "build city + generate trace + routing preprocessing: median "
             "of the set-up repeats (import is setup.import_s)"),
)
#: Timings above are at reference speed (see ``calibrate.py``); the bounds of
#: the timed metrics are as wide as the contract allows because the
#: sandbox's speed is that unsteady, not because a 25 % loss is acceptable --
#: ``compare.py`` on two ledgers of one seed resolves far less.


def _rows(prefix: str, moves: str, *rows: tuple) -> list[PerLayer]:
    return [
        PerLayer(f"{prefix}.{name}", unit, better, moves, *rest)
        for name, unit, better, *rest in rows
    ]


_P = True  # marks a partition row below

PER_LAYER: tuple[PerLayer, ...] = (
    *_rows(
        "service",
        "<1% of wall everywhere; shed -> service_rate and tick_ms_max tracks "
        "rebuild time on nyc_rush_rebuild",
        ("submit_s", "s", "lower", _P),
        ("submit_calls", "count", "lower"),
        ("tick_self_s", "s", "lower", _P),
        ("tick_total_s", "s", "lower"),
        ("lifecycle_s", "s", "lower", _P),
        ("tick_ms_p95", "ms", "lower"),
        ("tick_ms_p99", "ms", "lower"),
        ("tick_ms_max", "ms", "lower"),
        ("queue_high_watermark", "count", "lower"),
        ("shed", "count", "lower"),
        ("events_emitted", "count", "lower"),
        ("assign_wait_sim_s_p95", "sim-s", "lower"),
    ),
    *_rows(
        "simulation",
        "tick_ms_p50 on all; requests_per_s on nyc_greedy",
        ("process_batch_self_s", "s", "lower", _P),
        ("batches", "count", "lower"),
        ("pending_mean", "count", "lower"),
    ),
    *_rows(
        "model",
        "schedule_evaluate_s -> requests_per_s on nyc_sard, nyc_greedy; "
        "advance_to_s -> tick_ms_p50 on nyc_greedy",
        ("advance_to_s", "s", "lower", _P),
        ("advance_to_calls", "count", "lower"),
        ("route_state_s", "s", "lower", _P),
        ("route_state_calls", "count", "lower"),
        ("assign_schedule_s", "s", "lower", _P),
        ("schedule_evaluate_s", "s", "lower", _P),
        ("schedule_evaluate_calls", "count", "lower"),
    ),
    *_rows(
        "dispatch",
        "requests_per_s on nyc_sard (sard.* are inclusive stage spans)",
        ("dispatch_self_s", "s", "lower", _P),
        ("dispatch_total_s", "s", "lower"),
        ("candidate_vehicles_s", "s", "lower", _P),
        ("candidate_vehicles_calls", "count", "lower"),
        ("candidates_per_request", "count", "lower"),
        ("rounds", "count", "lower"),
        ("sard.sync_graph_s", "s", "lower"),
        ("sard.build_queues_s", "s", "lower"),
        ("sard.rounds_s", "s", "lower"),
        ("sard.materialize_s", "s", "lower"),
    ),
    *_rows(
        "shareability",
        "requests_per_s, service.tick_ms_p95 on nyc_sard and chd_ch_cold; zero on "
        "nyc_greedy",
        ("update_s", "s", "lower", _P),
        ("update_total_s", "s", "lower"),
        ("update_requests", "count", "lower"),
        ("remove_s", "s", "lower", _P),
        ("pairs_tested", "count", "lower"),
        ("edges_added", "count", "higher"),
        ("edge_yield", "ratio", "higher"),
        ("pruned_by_angle", "count", "higher"),
        ("loss_s", "s", "lower", _P),
        ("loss_calls", "count", "lower"),
    ),
    *_rows(
        "grouping",
        "~1% of wall under SARD: no end-to-end move expected; zero on nyc_greedy",
        ("build_groups_s", "s", "lower", _P),
        ("build_groups_total_s", "s", "lower"),
        ("build_groups_calls", "count", "lower"),
        ("groups_generated", "count", "lower"),
        ("merges_attempted", "count", "lower"),
        ("group_yield", "ratio", "higher"),
    ),
    *_rows(
        "insertion",
        "requests_per_s, tick_ms_p50 on nyc_sard, nyc_greedy; smaller on "
        "chd_ch_cold; little on nyc_rush_rebuild",
        ("best_insertion_s", "s", "lower", _P),
        ("best_insertion_total_s", "s", "lower"),
        ("best_insertion_calls", "count", "lower"),
        ("calls_per_request", "count", "lower"),
        ("feasible_share", "ratio", "higher"),
        ("evaluations_per_call", "count", "lower"),
        ("best_pair_schedule_s", "s", "lower", _P),
        ("best_pair_schedule_calls", "count", "lower"),
    ),
    *_rows(
        "network.grid_index",
        "move_* (per-tick full refresh) -> requests_per_s, tick_ms_p50 on "
        "nyc_greedy; query_radius_* -> nyc_sard",
        ("query_radius_s", "s", "lower", _P),
        ("query_radius_calls", "count", "lower"),
        ("move_s", "s", "lower", _P),
        ("move_calls", "count", "lower"),
    ),
    *_rows(
        "network.oracle",
        "cost_s (the hit path) -> requests_per_s on nyc_sard, nyc_greedy; "
        "peak_rss_mb on chd_ch_cold",
        ("cost_s", "s", "lower", _P),
        ("queries", "count", "lower"),
        ("hit_share", "ratio", "higher"),
        ("queries_per_distinct_pair", "count", "lower"),
        ("prefetch_s", "s", "lower", _P),
        ("prefetch_total_s", "s", "lower"),
        ("prefetch_calls", "count", "lower"),
    ),
    *_rows(
        "network.routing",
        "search_s -> requests_per_s, service.tick_ms_p95 on chd_ch_cold, none on "
        "nyc_sard; build_s -> setup_s everywhere and requests_per_s on "
        "nyc_rush_rebuild",
        ("search_s", "s", "lower", _P),
        ("searches", "count", "lower"),
        ("settled_nodes", "count", "lower"),
        ("build_s", "s", "lower"),
    ),
    *_rows(
        "scenarios",
        "requests_per_s on nyc_rush_rebuild only; zero elsewhere",
        ("rebuild_s", "s", "lower", _P),
        ("step_self_s", "s", "lower", _P),
        ("rebuilds", "count", "lower"),
        ("repairs", "count", "lower"),
        ("stale_s", "s", "lower"),
        ("events_applied", "count", "lower"),
    ),
    PerLayer("setup.import_s", "s", "lower",
             "time to import repro in the child; part of every cold start, "
             "kept out of setup_s because a single sample is too noisy to gate"),
    PerLayer("trace.coverage", "ratio", "higher",
             "partition rows / traced wall; the ledger requires >= 0.95"),
    PerLayer("trace.overhead_ratio", "ratio", "lower",
             "traced wall / untraced wall of the same trace"),
    PerLayer("mem.estimate_peak_mb", "MiB", "lower",
             "the program's own observe_memory estimate (the paper's Fig. 14)"),
)

#: ``trace.coverage`` below this fails the run.
MIN_COVERAGE = 0.95

def probe_row(metric: str) -> str:
    """The probe row behind an ``x.y_s`` / ``x.y_self_s`` / ``x.y_total_s`` metric."""
    return metric.removesuffix("_s").removesuffix("_self").removesuffix("_total")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
