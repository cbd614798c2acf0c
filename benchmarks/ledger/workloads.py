"""The ledger's workloads: four dispatch settings that stress different layers.

Every workload is a preset of the program's own generators plus the service
settings it is replayed under.  ``--seed N`` is *added* to the preset's
generator seeds, so the program only ever sees generated requests, and the
same seed gives the same trace, fleet and scenario timeline.

This module only describes them (the parent process lists them without
importing the program); ``build.py`` generates them.

Sizes are set so that one replay takes 3-6 s on a 2-core container: the
benchmark contract allows ~37 s per run (set-up repeats + reference pass +
timed replays), which is what bounds them -- see README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: generator preset, dispatcher and service settings."""

    name: str
    why: str
    preset: str
    request_scale: float
    vehicle_scale: float
    city_scale: float
    algorithm: str
    backend: str
    queue_capacity: int
    admission_policy: str
    #: Dynamic-world scenario preset (``None`` = static world).
    scenario: str | None = None
    refresh_policy: str | None = None

    @property
    def static(self) -> bool:
        """True when the world never mutates (batch parity holds exactly)."""
        return self.scenario is None


WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="nyc_sard",
        why=(
            "Headline: SARD with demand above fleet capacity on a compact city; "
            "insertion leads, then the shareability graph over the pending pool"
        ),
        preset="nyc", request_scale=0.65, vehicle_scale=1.5, city_scale=0.7,
        algorithm="SARD", backend="hub_label",
        queue_capacity=4096, admission_policy="reject",
    ),
    WorkloadSpec(
        name="nyc_greedy",
        why=(
            "Cheap control: same trace under pruneGDP with a 4x fleet bypasses "
            "shareability and grouping; per-tick O(fleet) engine work leads"
        ),
        preset="nyc", request_scale=0.65, vehicle_scale=6.0, city_scale=0.7,
        algorithm="pruneGDP", backend="hub_label",
        queue_capacity=4096, admission_policy="reject",
    ),
    WorkloadSpec(
        name="chd_ch_cold",
        why=(
            "Large sparse city whose node pairs dwarf the oracle's LRU, so most "
            "lookups are first touches: CH searches and prefetch lead"
        ),
        preset="chd", request_scale=0.3, vehicle_scale=3.0, city_scale=1.2,
        algorithm="SARD", backend="ch",
        queue_capacity=4096, admission_policy="reject",
    ),
    WorkloadSpec(
        name="nyc_rush_rebuild",
        why=(
            "Oracle writes beside reads: rush-hour mutation bursts force label "
            "rebuilds and the surge overflows a bounded queue, so admission sheds"
        ),
        preset="nyc", request_scale=0.3, vehicle_scale=4.0, city_scale=1.0,
        algorithm="SARD", backend="hub_label",
        queue_capacity=8, admission_policy="drop_oldest",
        scenario="rush_hour", refresh_policy="coalesce",
    ),
)

WORKLOADS_BY_NAME = {spec.name: spec for spec in WORKLOADS}
