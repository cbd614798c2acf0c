"""Generate a ledger workload and the fresh collaborators of one run over it."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import (
    DispatchService,
    ScenarioConfig,
    ServiceConfig,
    Simulator,
    make_dispatcher,
    make_refresh_policy,
    make_scenario_workload,
    make_workload,
)
from repro.workloads import WORKLOAD_PRESETS

from workloads import WorkloadSpec

#: Share of the generated base trace a seed keeps (see :func:`build`).
KEEP = 0.9

#: Assignment events kept by the service; must hold a whole run (about three
#: events per request) because the rider-wait metric is read from them.
EVENT_HISTORY = 200_000


@dataclass
class Built:
    """A generated workload: the trace, the city and (maybe) its scenario."""

    spec: WorkloadSpec
    workload: object
    scenario: object | None
    #: The trace in submission order.
    trace: list


def build(spec: WorkloadSpec, seed: int, *, fraction: float = 1.0) -> Built:
    """Generate the workload for ``seed`` (``fraction`` shrinks the trace).

    The city, the fleet and the demand model -- hotspots, trip lengths,
    surges -- are the preset's, whatever the seed: re-seeding the generator
    moves the hotspots, and that alone moved unified cost by 16 % and the
    rider's wait by 24 % between seeds; re-placing the fleet moved unified
    cost by 11 % on the sparse city -- wider than any bound.  Instead the
    generator makes a base trace ``1 / KEEP`` times too long at ``1 / KEEP``
    times the preset's arrival rate, and the seed picks which ``KEEP`` of
    its requests arrive (thinning a Poisson process leaves a Poisson process
    at the preset's rate).
    """
    preset = WORKLOAD_PRESETS[spec.preset].workload
    arguments = dict(
        scale=spec.request_scale * fraction / KEEP,
        vehicle_scale=spec.vehicle_scale,
        city_scale=spec.city_scale,
        workload_overrides={"arrival_rate": preset.arrival_rate / KEEP},
        simulation_overrides={"routing_backend": spec.backend},
    )
    scenario = None
    if spec.scenario is None:
        workload = make_workload(spec.preset, **arguments)
    else:
        workload, scenario = make_scenario_workload(
            spec.preset,
            spec.scenario,
            scenario_config=ScenarioConfig(refresh_policy=spec.refresh_policy),
            **arguments,
        )
    base = sorted(workload.requests, key=lambda r: (r.release_time, r.request_id))
    kept = random.Random(seed).sample(range(len(base)), round(len(base) * KEEP))
    trace = [base[index] for index in sorted(kept)]
    return Built(spec=spec, workload=workload, scenario=scenario, trace=trace)


def force_preprocessing(built: Built) -> None:
    """Make the routing backend finish its lazy set-up (first real query)."""
    first = built.trace[0]
    built.workload.fresh_oracle().cost(first.source, first.destination)


def _run_parts(built: Built) -> dict:
    """Fresh mutable collaborators for one run over the shared city."""
    workload, scenario = built.workload, built.scenario
    parts = dict(
        network=workload.network,
        oracle=workload.fresh_oracle(),
        vehicles=workload.fresh_vehicles(),
        dispatcher=make_dispatcher(built.spec.algorithm),
        config=workload.simulation_config,
    )
    if scenario is not None:
        parts["timeline"] = scenario.make_timeline()
        parts["refresh_policy"] = make_refresh_policy(config=scenario.config)
    return parts


def make_service(built: Built) -> DispatchService:
    """A fresh service (oracle, fleet, dispatcher, timeline) for one replay."""
    return DispatchService(
        service_config=ServiceConfig(
            queue_capacity=built.spec.queue_capacity,
            admission_policy=built.spec.admission_policy,
            event_history=EVENT_HISTORY,
        ),
        **_run_parts(built),
    )


def make_simulator(built: Built) -> Simulator:
    """The batch-mode simulator over the same trace (the parity reference)."""
    return Simulator(requests=list(built.trace), **_run_parts(built))
