"""Tests of the dispatch service layer (:mod:`repro.service`).

Covers the typed schemas (validation + wire round-trips), the bounded
ingestion queue (ordering, admission policies, async backpressure), the
service lifecycle (tick alignment, graceful shutdown, health/stats/metric rows
endpoints), the service-vs-batch parity gate, and the validation and the
package-level surface of the ``run(RunSpec)`` front door.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import operator
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import REFRESH_POLICIES, ScenarioConfig, ServiceConfig, SimulationConfig
from repro.dispatch import make_dispatcher
from repro.exceptions import ConfigurationError, SchemaError, ServiceError, UnreachableError
from repro.experiments.harness import RunSpec, deterministic_summary, run
from repro.model.vehicle import Vehicle
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import DistanceOracle
from repro.observability.export import _fmt_seconds
from repro.scenarios import ScaleEdges, ScenarioTimeline, make_refresh_policy
from repro.service import (
    Admission,
    AssignmentEvent,
    AssignmentEventKind,
    DispatchService,
    IngestionQueue,
    RejectionReason,
    RideRequest,
    ServiceStats,
)
from repro.service.schemas import SCHEMA_VERSION, check_schema_version
from repro.service.server import SLO_SERVICE_RATE
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind
from repro.simulation.metrics import METRICS, MetricsCollector, export_rows
from repro.workloads.presets import make_workload


def _ride(request_id: int, release_time: float = 0.0, **kwargs) -> RideRequest:
    defaults = dict(origin=0, destination=7)
    defaults.update(kwargs)
    return RideRequest(
        request_id=request_id, release_time=release_time, **defaults
    )


#: Each of these used to be admitted: NaN passes every ``<`` check, and an
#: infinite time can overflow the grid index on the first tick.
NON_FINITE_TIMES = [
    pytest.param({"max_wait": math.nan}, id="max_wait-nan"),
    pytest.param({"max_wait": math.inf}, id="max_wait-inf"),
    pytest.param({"deadline": math.nan}, id="deadline-nan"),
    pytest.param({"deadline": math.inf}, id="deadline-inf"),
]


# --------------------------------------------------------------------- #
# schemas
# --------------------------------------------------------------------- #
class TestRideRequestSchema:
    def test_dict_round_trip(self):
        ride = _ride(3, 12.5, riders=2, max_wait=60.0, deadline=400.0,
                     direct_cost=88.0)
        assert RideRequest.from_dict(ride.to_dict()) == ride

    def test_json_round_trip(self):
        ride = _ride(4, 1.0)
        assert RideRequest.from_json(ride.to_json()) == ride

    @pytest.mark.parametrize("overrides", [
        dict(request_id=-1),
        dict(origin=-2),
        dict(riders=0),
        dict(release_time=float("inf")),
        dict(max_wait=-1.0),
        dict(release_time=10.0, deadline=5.0),
        dict(direct_cost=float("nan")),
        dict(schema_version=99),
        *NON_FINITE_TIMES,
    ])
    def test_validation_rejects(self, overrides):
        fields = dict(request_id=1, origin=0, destination=7,
                      release_time=0.0)
        fields.update(overrides)
        with pytest.raises(SchemaError):
            RideRequest(**fields)

    @pytest.mark.parametrize("field", NON_FINITE_TIMES)
    def test_from_dict_rejects_non_finite_times(self, field):
        payload = _ride(1).to_dict() | field
        with pytest.raises(SchemaError, match="must be finite"):
            RideRequest.from_dict(payload)

    def test_unknown_fields_rejected(self):
        payload = _ride(1).to_dict() | {"surge_multiplier": 2.0}
        with pytest.raises(SchemaError, match="unknown fields"):
            RideRequest.from_dict(payload)

    def test_version_mismatch_rejected(self):
        payload = _ride(1).to_dict() | {"schema_version": SCHEMA_VERSION + 1}
        with pytest.raises(SchemaError, match="incompatible schema_version"):
            RideRequest.from_dict(payload)
        with pytest.raises(SchemaError):
            check_schema_version({"schema_version": 0}, kind="RideRequest")

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            RideRequest.from_json("{not json")
        with pytest.raises(SchemaError, match="must be an object"):
            RideRequest.from_json("[1, 2]")

    def test_internal_request_round_trip_is_loss_free(
        self, make_request, oracle, config
    ):
        request = make_request(5, 0, 21, 7.0, riders=2)
        ride = RideRequest.from_request(request)
        back = ride.to_request(oracle=oracle, config=config)
        assert back == request

    def test_to_request_derives_missing_fields(self, oracle, config):
        ride = _ride(6, 10.0, origin=0, destination=21)
        request = ride.to_request(oracle=oracle, config=config)
        direct = oracle.cost(0, 21)
        assert request.direct_cost == direct
        assert request.deadline == 10.0 + config.gamma * direct
        assert request.max_wait == config.max_wait

    def test_to_request_raises_on_unreachable(self, config):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 100.0, 0.0)  # no edges: unroutable pair
        oracle = DistanceOracle(network)
        ride = _ride(7, origin=0, destination=1)
        with pytest.raises(UnreachableError):
            ride.to_request(oracle=oracle, config=config)


class TestAssignmentEventSchema:
    def test_round_trip_flattens_enums(self):
        event = AssignmentEvent(
            event=AssignmentEventKind.REJECTED, time=5.0, request_id=1,
            batch_index=2, reason=RejectionReason.QUEUE_FULL,
        )
        payload = event.to_dict()
        assert payload["event"] == "rejected"
        assert payload["reason"] == "queue_full"
        assert AssignmentEvent.from_dict(payload) == event
        assert AssignmentEvent.from_json(event.to_json()) == event

    def test_assigned_requires_vehicle(self):
        with pytest.raises(SchemaError, match="vehicle_id"):
            AssignmentEvent(
                event=AssignmentEventKind.ASSIGNED, time=0.0, request_id=1
            )

    def test_unknown_wire_values_rejected(self):
        event = AssignmentEvent(
            event=AssignmentEventKind.COMPLETED, time=1.0, request_id=1,
            vehicle_id=0,
        )
        with pytest.raises(SchemaError):
            AssignmentEvent.from_dict(event.to_dict() | {"event": "teleported"})
        with pytest.raises(SchemaError):
            AssignmentEvent.from_dict(event.to_dict() | {"reason": "cosmic_ray"})


class TestServiceStatsSchema:
    def test_round_trip(self):
        stats = ServiceStats(
            received=10, accepted=8, rejected={"queue_full": 2}, assigned=6,
            completed=5, batches=3, queue_depth=1, queue_high_watermark=4,
            sim_time=15.0, service_rate=0.75,
        )
        assert ServiceStats.from_dict(stats.to_dict()) == stats
        assert ServiceStats.from_json(stats.to_json()) == stats

    @pytest.mark.parametrize("overrides", [
        dict(received=-1),
        dict(service_rate=1.5),
        dict(schema_version=2),
        dict(received=4, rejected={"bogus": 1}),
        dict(received=4, rejected={"queue_full": -4}),
        dict(received=2, accepted=3),
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(SchemaError):
            ServiceStats(**overrides)

    def test_a_payload_breaking_all_three_count_rules_is_refused(self):
        with pytest.raises(SchemaError):
            ServiceStats.from_dict({"rejected": {"bogus": -4}, "received": 0, "accepted": 3})


#: Payloads the boundary used to answer with ``TypeError`` (or accept).
MISTYPED_PAYLOADS = [
    pytest.param(RideRequest, {"request_id": "5", "origin": 0, "destination": 7,
                               "release_time": 0.0}, id="ride-str-id"),
    pytest.param(RideRequest, {"request_id": 5, "origin": 0, "destination": 7},
                 id="ride-missing-release"),
    pytest.param(RideRequest, {"request_id": 5.5, "origin": 0, "destination": 7,
                               "release_time": 0.0}, id="ride-float-id"),
    pytest.param(RideRequest, {"request_id": True, "origin": 0, "destination": 7,
                               "release_time": 0.0}, id="ride-bool-id"),
    pytest.param(RideRequest, {"request_id": 5, "origin": 0, "destination": 7,
                               "release_time": 10**400}, id="ride-huge-time"),
    pytest.param(AssignmentEvent, {"event": "expired", "time": 1.0}, id="event-missing-id"),
    pytest.param(ServiceStats, {"received": "5"}, id="stats-str-count"),
    pytest.param(ServiceStats, {"rejected": {"queue_full": 1.5}}, id="stats-float-reason"),
    pytest.param(ServiceStats, {"sim_time": math.nan}, id="stats-nan-time"),
]


@pytest.mark.parametrize(("schema", "payload"), MISTYPED_PAYLOADS)
def test_mistyped_payloads_raise_schema_error(schema, payload):
    with pytest.raises(SchemaError):
        schema.from_dict(payload)
    with pytest.raises(SchemaError):
        schema.from_json(json.dumps(payload))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)
#: A value each field annotation accepts (most of the time: ranges include
#: values the models' own checks refuse).
_PLAUSIBLE = {
    "int": st.integers(-1, 50),
    "float": st.floats(-1.0, 500.0) | st.integers(0, 500),
    "dict[str, int]": st.dictionaries(
        st.sampled_from([reason.value for reason in RejectionReason]) | st.text(max_size=3),
        st.integers(-1, 9), max_size=2,
    ),
    "AssignmentEventKind": st.sampled_from([kind.value for kind in AssignmentEventKind]),
    "RejectionReason": st.sampled_from([reason.value for reason in RejectionReason]),
}


def _json_objects(schema: type) -> st.SearchStrategy:
    """Arbitrary JSON objects: a plausible payload with a few keys
    overwritten or added by arbitrary JSON, or any object at all."""
    fields = dataclasses.fields(schema)
    keys = st.sampled_from([field.name for field in fields]) | st.text(max_size=3)
    plausible = {}
    for field in fields:
        annotation = str(field.type)
        plausible[field.name] = _PLAUSIBLE[annotation.removesuffix(" | None")]
        if annotation.endswith(" | None"):
            plausible[field.name] |= st.none()
    required = [field.name for field in fields if field.default is dataclasses.MISSING]
    base = st.fixed_dictionaries(
        {name: plausible[name] for name in required},
        optional={name: value for name, value in plausible.items() if name not in required},
    )
    junk = st.dictionaries(keys, _JSON_VALUES, max_size=2)
    return st.builds(operator.or_, base, junk) | st.dictionaries(keys, _JSON_VALUES, max_size=6)


@pytest.mark.parametrize("schema", [RideRequest, AssignmentEvent, ServiceStats])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsing_arbitrary_json_raises_schema_error_or_round_trips(schema, data):
    payload = data.draw(_json_objects(schema))
    for parse, source in ((schema.from_dict, payload), (schema.from_json, json.dumps(payload))):
        try:
            model = parse(source)
        except SchemaError:
            continue
        assert schema.from_dict(model.to_dict()).to_dict() == model.to_dict()
        assert schema.from_json(model.to_json()) == schema.from_dict(model.to_dict())


# --------------------------------------------------------------------- #
# ingestion queue
# --------------------------------------------------------------------- #
class TestIngestionQueue:
    def test_constructor_validates(self):
        with pytest.raises(ConfigurationError):
            IngestionQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            IngestionQueue(policy="panic")
        with pytest.raises(TypeError):
            IngestionQueue(16)  # keyword-only

    def test_drains_in_release_order(self):
        queue = IngestionQueue(capacity=8)
        for ride in (_ride(3, 9.0), _ride(1, 2.0), _ride(2, 2.0)):
            assert queue.offer(ride).accepted
        # Strict bound: release == until belongs to the *next* batch.
        assert [r.request_id for r in queue.take_due(9.0)] == [1, 2]
        assert queue.depth == 1
        assert [r.request_id for r in queue.take_due(9.5)] == [3]

    def test_duplicates_rejected_even_after_consumption(self):
        queue = IngestionQueue(capacity=8)
        assert queue.offer(_ride(1)).accepted
        queue.take_due(100.0)
        admission = queue.offer(_ride(1))
        assert not admission.accepted
        assert admission.reason is RejectionReason.DUPLICATE_REQUEST

    def test_full_queue_rejects(self):
        queue = IngestionQueue(capacity=1)
        assert queue.offer(_ride(1)).accepted
        admission = queue.offer(_ride(2))
        assert admission == Admission(
            accepted=False, reason=RejectionReason.QUEUE_FULL, queue_depth=1
        )
        assert queue.counters.rejected == {"queue_full": 1}

    def test_drop_oldest_sheds_longest_queued(self):
        queue = IngestionQueue(capacity=2, policy="drop_oldest")
        queue.offer(_ride(1, 0.0))
        queue.offer(_ride(2, 5.0))
        admission = queue.offer(_ride(3, 10.0))
        assert admission.accepted
        assert admission.shed is not None
        assert admission.shed.request_id == 1
        assert queue.counters.rejected == {"shed_oldest": 1}
        assert [r.request_id for r in queue.take_due(100.0)] == [2, 3]

    def test_closed_queue_refuses(self):
        queue = IngestionQueue(capacity=2)
        queue.offer(_ride(1))
        queue.close()
        admission = queue.offer(_ride(2))
        assert admission.reason is RejectionReason.SHUTTING_DOWN
        # Queued requests stay drainable after close.
        assert [r.request_id for r in queue.take_due(100.0)] == [1]

    def test_high_watermark_tracks_peak(self):
        queue = IngestionQueue(capacity=8)
        for request_id in range(3):
            queue.offer(_ride(request_id))
        queue.take_due(100.0)
        queue.offer(_ride(9))
        assert queue.counters.high_watermark == 3
        assert queue.depth == 1

    def test_async_put_blocks_until_tick_frees_space(self):
        async def scenario():
            queue = IngestionQueue(capacity=1)
            assert (await queue.put(_ride(1, 0.0))).accepted
            waiter = asyncio.ensure_future(queue.put(_ride(2, 1.0)))
            await asyncio.sleep(0)
            assert not waiter.done()  # backpressure: full queue blocks
            assert [r.request_id for r in queue.take_due(10.0)] == [1]
            admission = await asyncio.wait_for(waiter, timeout=1.0)
            assert admission.accepted
            assert queue.depth == 1

        asyncio.run(scenario())

    def test_async_put_wakes_on_close(self):
        async def scenario():
            queue = IngestionQueue(capacity=1)
            await queue.put(_ride(1))
            waiter = asyncio.ensure_future(queue.put(_ride(2)))
            await asyncio.sleep(0)
            queue.close()
            admission = await asyncio.wait_for(waiter, timeout=1.0)
            assert admission.reason is RejectionReason.SHUTTING_DOWN

        asyncio.run(scenario())

    def test_truthiness_is_not_depth(self):
        assert bool(IngestionQueue(capacity=1)) is True
        assert len(IngestionQueue(capacity=1)) == 0


# --------------------------------------------------------------------- #
# service lifecycle
# --------------------------------------------------------------------- #
@pytest.fixture()
def make_service(grid_network, oracle, config):
    """Factory building a small service over the deterministic grid city."""

    def _make(**kwargs) -> DispatchService:
        return DispatchService(
            network=grid_network,
            oracle=oracle,
            vehicles=[
                Vehicle(vehicle_id=0, location=0),
                Vehicle(vehicle_id=1, location=35),
            ],
            dispatcher=make_dispatcher(kwargs.pop("algorithm", "pruneGDP")),
            config=config,
            **kwargs,
        )

    return _make


class TestDispatchServiceLifecycle:
    def test_constructor_is_keyword_only(self, grid_network, oracle, config):
        with pytest.raises(TypeError):
            DispatchService(grid_network, oracle)  # noqa: not keyword

    def test_submit_requires_start(self, make_service):
        service = make_service()
        with pytest.raises(ServiceError, match="not started"):
            service.submit(_ride(1))
        with pytest.raises(ServiceError, match="not started"):
            service.tick()

    def test_instances_run_once(self, make_service):
        service = make_service()
        service.start()
        with pytest.raises(ServiceError, match="already started"):
            service.start()
        with pytest.raises(ServiceError, match="not been shut down"):
            service.result
        service.shutdown()
        with pytest.raises(ServiceError, match="run once"):
            service.start()
        with pytest.raises(ServiceError, match="already stopped"):
            service.submit(_ride(1))

    def test_tick_aligns_windows_like_batch_stream(
        self, make_service, make_request
    ):
        service = make_service()
        service.start()
        # batch_period=5: release 7 -> first window [5, 10); release 17
        # lands two windows later, with an empty window in between that the
        # tick must still process (pending-pool retries happen there).
        service.submit(make_request(1, 0, 7, 7.0))
        service.submit(make_request(2, 35, 28, 17.0))
        assert service.tick() is not None  # [5, 10): request 1
        service.tick()  # [10, 15): empty window, still ticked
        service.tick()  # [15, 20): request 2
        assert service.stats().batches == 3
        assert service.tick() is None  # queue empty: no-op
        result = service.shutdown()
        assert result.stats.batches == 3
        assert result.stats.assigned == 2
        times = [e.time for e in result.events
                 if e.event is AssignmentEventKind.ASSIGNED]
        assert all(t >= 5.0 for t in times)

    def test_graceful_shutdown_drains_queue(self, make_service, make_request):
        service = make_service()
        service.start()
        # Five requests spanning several windows, never ticked manually:
        # the drain must give each one its dispatch opportunity.
        for i, release in enumerate((0.0, 3.0, 11.0, 22.0, 40.0)):
            admission = service.submit(make_request(i, 0, 7 + i, release))
            assert admission.accepted
        assert service.queue.depth == 5
        result = service.shutdown()
        assert service.queue.depth == 0
        assert service.stopped
        assert result.stats.queue_depth == 0
        assert result.stats.accepted == 5
        terminal = (
            result.stats.assigned
            + result.stats.expired
            + result.stats.dispatch_rejected
        )
        assert terminal == 5  # nothing silently vanished in the drain
        assert result.stats.assigned > 0

    @pytest.mark.parametrize("field", NON_FINITE_TIMES)
    def test_submit_refuses_non_finite_times(
        self, field, make_service, make_request
    ):
        service = make_service()
        service.start()
        request = dataclasses.replace(make_request(1, 0, 7, 0.0), **field)
        with pytest.raises(SchemaError, match="must be finite"):
            service.submit(request)
        assert service.stats().received == 0
        assert service.tick() is None
        assert service.shutdown().stats.accepted == 0

    def test_unknown_node_refused_before_queueing(self, make_service):
        service = make_service()
        service.start()
        admission = service.submit(_ride(1, origin=9999))
        assert not admission.accepted
        assert admission.reason is RejectionReason.UNKNOWN_NODE
        assert service.queue.depth == 0
        assert service.stats().rejected == {"unknown_node": 1}
        service.shutdown()

    def test_duplicate_submission_rejected(self, make_service, make_request):
        service = make_service()
        service.start()
        request = make_request(1, 0, 7, 0.0)
        assert service.submit(request).accepted
        admission = service.submit(request)
        assert admission.reason is RejectionReason.DUPLICATE_REQUEST
        service.shutdown()

    def test_asubmit_is_the_async_twin(self, make_service, make_request):
        service = make_service()
        service.start()

        async def scenario():
            return await service.asubmit(make_request(1, 0, 7, 0.0))

        assert asyncio.run(scenario()).accepted
        result = service.shutdown()
        assert result.stats.assigned == 1

    def test_subscribers_stream_events(self, make_service, make_request):
        service = make_service()
        seen: list[AssignmentEvent] = []
        unsubscribe = service.subscribe(seen.append)
        service.start()
        service.submit(make_request(1, 0, 7, 0.0))
        service.tick()
        assert any(e.event is AssignmentEventKind.ASSIGNED for e in seen)
        count = len(seen)
        unsubscribe()
        service.submit(make_request(2, 35, 28, 20.0))
        service.shutdown()
        assert len(seen) == count  # nothing delivered after unsubscribe

    def test_event_history_is_bounded(self, make_service, make_request):
        service = make_service(service_config=ServiceConfig(event_history=1))
        service.start()
        for i in range(4):
            service.submit(make_request(i, 0, 7 + i, 0.0))
        result = service.shutdown()
        assert len(result.events) == 1
        assert result.stats.events_dropped > 0

    def test_health_endpoint_follows_lifecycle(
        self, make_service, make_request
    ):
        service = make_service()
        assert service.health()["status"] == "stopped"
        service.start()
        health = service.health()
        assert health["status"] == "ok"
        assert health["queue_capacity"] == ServiceConfig().queue_capacity
        assert health["slo_service_rate"] == SLO_SERVICE_RATE
        service.submit(make_request(1, 0, 7, 0.0))
        result = service.shutdown()
        assert service.health()["status"] == "stopped"
        assert result.slo_met == (result.service_rate >= SLO_SERVICE_RATE)

    @pytest.mark.parametrize("policy", REFRESH_POLICIES)
    def test_health_is_degraded_only_inside_a_fallback_window(
        self, grid_network, config, policy
    ):
        """A burst at the first boundary puts ``coalesce`` on the fallback
        (``degraded``) until the next, quiet boundary rebuilds; ``repair``
        absorbs it at once and stays ``ok``."""
        u, v, _ = next(iter(grid_network.edges()))
        service = DispatchService(
            network=grid_network,
            oracle=DistanceOracle(grid_network, backend="ch"),
            vehicles=[Vehicle(vehicle_id=0, location=0)],
            dispatcher=make_dispatcher("pruneGDP"),
            config=config,
            timeline=ScenarioTimeline([ScaleEdges(time=5.0, edges=[(u, v)], factor=2.0)]),
            refresh_policy=make_refresh_policy(policy),
        )
        service.start()
        for request_id, release_time in enumerate((1.0, 6.0, 11.0)):
            service.submit(_ride(request_id, release_time))
        service.tick()  # [0, 5): the burst lands at its end
        health = service.health()
        assert health["oracle_fallback"] == (policy == "coalesce")
        assert health["status"] == ("degraded" if policy == "coalesce" else "ok")
        service.tick()  # [5, 10): no event due, coalesce rebuilds
        health = service.health()
        assert not health["oracle_fallback"] and not health["oracle_stale"]
        assert health["status"] == "ok"
        service.shutdown()

    def test_rows_carry_service_metrics(
        self, make_service, make_request
    ):
        service = make_service()
        service.start()
        service.submit(make_request(1, 0, 7, 0.0))
        service.tick()
        snapshot = {spec.name: value for spec, value in service.metric_rows()}
        assert snapshot["service.received"] == 1
        assert snapshot["service.accepted"] == 1
        assert snapshot["service.batches"] == 1
        assert "requests.assigned" in snapshot  # simulation half included
        service.shutdown()


class TestServiceConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(queue_capacity=0),
        dict(admission_policy="panic"),
        dict(event_history=-1),
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**overrides)


# --------------------------------------------------------------------- #
# parity with batch mode (the acceptance gate)
# --------------------------------------------------------------------- #
def _assignment_pairs(events) -> list[tuple[int, int]]:
    return sorted(
        (event.subject, event.other)
        for event in events.of_kind(EventKind.REQUEST_ASSIGNED)
    )


def _streamed_assignment_pairs(events) -> list[tuple[int, int]]:
    return sorted(
        (event.request_id, event.vehicle_id)
        for event in events
        if event.event is AssignmentEventKind.ASSIGNED
    )


class TestBatchParity:
    def test_service_reproduces_batch_assignments(self):
        workload = make_workload("nyc", scale=0.04, city_scale=0.35)
        batch = Simulator(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            requests=list(workload.requests),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            record_events=True,
        ).run()
        service = DispatchService(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
        )
        outcome = service.serve(
            RideRequest.from_request(r) for r in workload.requests
        )
        assert _streamed_assignment_pairs(outcome.events) == (
            _assignment_pairs(batch.events)
        )
        assert outcome.unified_cost == batch.unified_cost
        assert outcome.stats.assigned == batch.metrics.assigned_requests

    def test_harness_service_mode_matches_single(self):
        workload = make_workload("nyc", scale=0.04, city_scale=0.35)
        single = run(RunSpec(
            workload=workload, algorithm="pruneGDP"
        ))
        service = run(RunSpec(
            service_config=ServiceConfig(), workload=workload, algorithm="pruneGDP"
        ))
        assert single.simulation is not None
        assert service.service is not None
        assert service.service.simulation.unified_cost == (
            single.simulation.unified_cost
        )

    def test_serve_survives_a_tight_queue(self):
        """Under a deliberately tiny queue serve() ticks early instead of
        deadlocking; throughput accounting still balances."""
        workload = make_workload("nyc", scale=0.03, city_scale=0.35)
        service = DispatchService(
            network=workload.network,
            oracle=workload.fresh_oracle(),
            vehicles=workload.fresh_vehicles(),
            dispatcher=make_dispatcher("pruneGDP"),
            config=workload.simulation_config,
            service_config=ServiceConfig(queue_capacity=2),
        )
        outcome = service.serve(
            RideRequest.from_request(r) for r in workload.requests
        )
        assert outcome.stats.accepted == len(workload.requests)
        assert outcome.stats.queue_depth == 0


# --------------------------------------------------------------------- #
# one event sink, one metrics table
# --------------------------------------------------------------------- #
def _nyc_service() -> tuple[DispatchService, list[RideRequest]]:
    workload = make_workload("nyc", scale=0.05, city_scale=0.35)
    service = DispatchService(
        network=workload.network,
        oracle=workload.fresh_oracle(),
        vehicles=workload.fresh_vehicles(),
        dispatcher=make_dispatcher("SARD"),
        config=workload.simulation_config,
    )
    return service, [RideRequest.from_request(r) for r in workload.requests]


class TestStreamIsIndependentOfRetention:
    def test_the_stream_needs_no_retained_log(self):
        """The service listens on the engine's sink and keeps its own
        history, so its simulator retains no log: every lifecycle event is
        streamed anyway."""
        service, rides = _nyc_service()
        outcome = service.serve(rides)
        assert outcome.stats.assigned > 0
        assert len(outcome.simulation.events) == 0
        assert outcome.simulation.events.dropped == 0
        streamed = sum(
            event.event is AssignmentEventKind.ASSIGNED for event in outcome.events
        )
        assert outcome.stats.assigned == streamed


class TestLiveViewIsTheTruth:
    def test_mid_run_rows_then_frozen_result(self):
        service, rides = _nyc_service()
        service.start()
        for ride in rides:
            service.submit(ride)
        for _ in range(12):
            service.tick()
        live = {spec.name: value for spec, value in service.metric_rows()}
        travelled = sum(v.total_travel_time for v in service.vehicles)
        assert travelled > 0
        assert live["oracle.queries"] == service.oracle.stats.queries > 0
        assert live["requests.completed"] == service.stats().completed > 0
        assert live["sim.unified_cost"] == pytest.approx(
            travelled + service._sim.run_state.metrics.penalty
        )

        result = service.shutdown()
        final = {
            spec.name: value
            for spec, value in export_rows(METRICS, result.simulation.metrics)
        }
        service.oracle.stats.reset()
        frozen = {spec.name: value for spec, value in service.metric_rows()}
        for name in ("oracle.queries", "requests.completed", "sim.unified_cost"):
            assert frozen[name] == final[name]
        assert frozen["oracle.queries"] > live["oracle.queries"]
        assert service.stats() == result.stats


# --------------------------------------------------------------------- #
# RunSpec validation, composed runs and what replaced the shims
# --------------------------------------------------------------------- #
class TestRunSpec:
    def test_rejects_preset_name_in_workload_field(self):
        with pytest.raises(ConfigurationError, match="preset="):
            RunSpec(workload="nyc")

    @pytest.mark.parametrize(
        "layer", [{}, {"service_config": ServiceConfig()}], ids=["single", "service"]
    )
    def test_refresh_policy_needs_a_scenario(self, layer):
        with pytest.raises(ConfigurationError, match="refresh_policy"):
            RunSpec(refresh_policy="repair", **layer)

    def test_parity_pairs_needs_a_scenario_without_chaos(self):
        with pytest.raises(ConfigurationError, match="parity_pairs"):
            RunSpec(parity_pairs=4)
        with pytest.raises(ConfigurationError, match="parity_pairs"):
            RunSpec(scenario="stadium_surge", chaos="flaky_oracle", parity_pairs=4)
        RunSpec(scenario="stadium_surge", parity_pairs=4)

    @pytest.mark.parametrize(
        "stray",
        [
            {"backend": "ch"},
            {"num_requests": 10},
            {"num_vehicles": 3},
            {"scenario": "bridge_closure", "refresh_policy": "repair"},
        ],
    )
    def test_built_workload_rejects_the_knobs_it_would_ignore(self, stray):
        workload = make_workload("nyc", scale=0.02, city_scale=0.35)
        with pytest.raises(ConfigurationError, match=next(iter(stray))):
            RunSpec(workload=workload, **stray)

    @pytest.mark.parametrize("backend", ["ch", "hub_label"])
    def test_backend_applies_to_a_given_simulation_config(self, backend):
        """``backend=`` next to ``simulation_config=`` overrides that config's
        backend instead of being dropped."""
        outcome = run(RunSpec(
            backend=backend, simulation_config=SimulationConfig(),
            scenario="bridge_closure", scale=0.03, algorithm="pruneGDP",
        ))
        assert outcome.simulation.config.routing_backend == backend

    def test_a_scenario_run_needs_no_backend_or_policy(self):
        """Without ``backend=`` / ``refresh_policy=`` a scenario run keeps the
        preset's backend and runs the scenario's own policy."""
        spec = RunSpec(scenario="bridge_closure", scale=0.03, algorithm="pruneGDP")
        outcome = run(spec)
        preset = make_workload("nyc", scale=0.02, city_scale=0.35)
        assert outcome.simulation.config.routing_backend == (
            preset.simulation_config.routing_backend
        )
        assert outcome.simulation.metrics.scenario_events > 0
        named = run(dataclasses.replace(
            spec, refresh_policy=ScenarioConfig().refresh_policy
        ))
        assert deterministic_summary(outcome.simulation.metrics) == (
            deterministic_summary(named.simulation.metrics)
        )

    def test_deterministic_summary_keeps_every_count(self):
        """Only the wall-clock ``*_seconds`` keys leave the summary."""
        metrics = MetricsCollector(
            total_requests=5, assigned_requests=4, oracle_rebuilds=2,
            faults_injected=3, dispatch_seconds=0.25, recovery_seconds=0.5,
        )
        kept = deterministic_summary(metrics)
        assert set(kept) == {
            key for key in metrics.summary() if not key.endswith("_seconds")
        }
        assert kept == {key: metrics.summary()[key] for key in kept}
        assert kept["oracle_rebuilds"] == 2 and kept["faults_injected"] == 3


class TestOneBuilderForEveryRun:
    def test_scenario_and_service_compose(self, monkeypatch):
        """A scenario replayed through the service keeps the batch run's
        metrics, and the service streams the batch run's assignments."""
        spec = RunSpec(
            scenario="bridge_closure", backend="ch", refresh_policy="repair",
            scale=0.03, algorithm="pruneGDP",
        )
        assigned = []
        emit = Simulator._emit

        def recording(simulator, when, kind, subject, other=None):
            if EventKind(kind) is EventKind.REQUEST_ASSIGNED:
                assigned.append((subject, other))
            emit(simulator, when, kind, subject, other)

        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "_emit", recording)
            batch = run(spec)
        served = run(dataclasses.replace(spec, service_config=ServiceConfig()))
        assert deterministic_summary(served.simulation.metrics) == (
            deterministic_summary(batch.simulation.metrics)
        )
        assert served.simulation.metrics.scenario_events > 0
        assert served.service is not None
        assert assigned
        assert _streamed_assignment_pairs(served.service.events) == sorted(assigned)

    def test_traced_run_writes_artifacts_and_matches_single(self, tmp_path):
        shape = dict(
            num_requests=40, num_vehicles=8, city_scale=0.3, algorithm="pruneGDP"
        )
        traced = run(RunSpec(out_dir=tmp_path, name="t", **shape))
        single = run(RunSpec(**shape))
        assert traced.artifacts is not None
        assert sorted(path.name for path in traced.artifacts.values()) == [
            "t.prom", "t.report.md", "t.trace.jsonl",
        ]
        for path in traced.artifacts.values():
            assert path.stat().st_size > 0
        report = (tmp_path / "t.report.md").read_text().splitlines()
        assert "pruneGDP on NYC (40 requests, 8 vehicles" in report[0]
        # One percentile rule: the latency table repeats the exact p95.
        latency_row = next(line for line in report if line.startswith("| dispatch.batch_seconds"))
        p95 = traced.simulation.metrics.dispatch_latency()["dispatch_p95_seconds"]
        assert latency_row.split(" | ")[4] == _fmt_seconds(p95)
        prom = (tmp_path / "t.prom").read_text().splitlines()
        golden = json.loads((Path(__file__).parent / "golden" / "metric_names.json").read_text())
        assert [line.split()[2] for line in prom if line.startswith("# TYPE")] == sorted(
            "repro_" + name.replace(".", "_") for name in golden["rows"] + golden["latencies"]
        )
        batches = traced.simulation.metrics.num_batches
        assert f"repro_dispatch_batch_seconds_count {batches}" in prom
        assert traced.simulation is not None and single.simulation is not None
        assert traced.simulation.unified_cost == single.simulation.unified_cost
        assert traced.simulation.service_rate == single.simulation.service_rate
        assert traced.simulation.metrics.assigned_requests == (
            single.simulation.metrics.assigned_requests
        )

    def test_scenario_name_means_the_same_in_every_run(self, tmp_path):
        """One workload builder: a scenario name builds the surge-modulated
        workload and its timeline under any other layer (here tracing)."""
        outcome = run(RunSpec(
            scenario="bridge_closure", backend="ch", refresh_policy="coalesce",
            scale=0.03, algorithm="pruneGDP", out_dir=tmp_path,
        ))
        assert outcome.artifacts is not None
        assert outcome.simulation.metrics.scenario_events > 0
        assert outcome.simulation.metrics.oracle_rebuilds > 0

    @pytest.mark.parametrize(
        "layer, algorithm",
        [({}, "SARD"), ({"chaos": "flaky_oracle"}, "pruneGDP")],
        ids=["plain", "chaos"],
    )
    def test_the_default_algorithm(self, tmp_path, layer, algorithm):
        outcome = run(RunSpec(
            num_requests=30, num_vehicles=6, city_scale=0.3,
            out_dir=tmp_path, name="t", **layer,
        ))
        title = (tmp_path / "t.report.md").read_text().splitlines()[0]
        assert title.startswith(f"# Traced run: {algorithm} on ")
        assert (outcome.simulation.metrics.faults_injected > 0) == bool(layer)

    @pytest.mark.parametrize(
        "layer",
        [
            {"scenario": "bridge_closure", "backend": "ch"},
            {"chaos": "flaky_oracle"},
            {"service_config": ServiceConfig()},
        ],
        ids=["scenario", "chaos", "service"],
    )
    def test_out_dir_traces_any_layer_without_changing_it(self, tmp_path, layer):
        spec = RunSpec(scale=0.03, city_scale=0.35, algorithm="pruneGDP", **layer)
        plain = run(spec)
        traced = run(dataclasses.replace(spec, out_dir=tmp_path, name="t"))
        assert plain.artifacts is None and traced.artifacts is not None
        assert sorted(path.name for path in traced.artifacts.values()) == [
            "t.prom", "t.report.md", "t.trace.jsonl",
        ]
        assert traced.simulation.unified_cost == plain.simulation.unified_cost
        assert traced.simulation.metrics.assigned_requests == (
            plain.simulation.metrics.assigned_requests
        )
        assert (traced.service is None) == (plain.service is None)
        assert deterministic_summary(traced.simulation.metrics) == (
            deterministic_summary(plain.simulation.metrics)
        )

    def test_chaos_and_service_compose(self):
        """Chaos replayed through the service keeps the batch run's metrics."""
        spec = RunSpec(chaos="flaky_oracle", scale=0.03, city_scale=0.35)
        batch = run(spec)
        served = run(dataclasses.replace(spec, service_config=ServiceConfig()))
        assert served.service is not None
        assert served.simulation.metrics.faults_injected > 0
        assert deterministic_summary(served.simulation.metrics) == (
            deterministic_summary(batch.simulation.metrics)
        )

    def test_traced_honours_a_built_workload(self, tmp_path):
        workload = make_workload("nyc", scale=0.02, city_scale=0.35)
        traced = run(RunSpec(
            out_dir=tmp_path, workload=workload, algorithm="pruneGDP"
        ))
        assert traced.simulation is not None
        assert traced.simulation.metrics.total_requests == len(workload.requests)


class TestDeprecationShims:
    """The shims are gone: one front door, no lazy aliases, no warnings."""

    def test_old_names_left_the_eager_namespace(self):
        launchers = sorted(name for name in dir(repro) if name.startswith("run"))
        assert launchers == ["run"]
        assert "run" in repro.__all__ and "RunSpec" in repro.__all__
        assert "__getattr__" not in vars(repro)
        with pytest.raises(AttributeError):
            repro.run_everything_everywhere

    def test_new_front_door_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(RunSpec(
                workload=make_workload("nyc", scale=0.02, city_scale=0.35),
                algorithm="pruneGDP",
            ))


def test_version_has_one_source():
    """pyproject.toml reads ``repro.__version__`` instead of restating it
    (the two literals had drifted to 0.1.0 and 1.0.0)."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    config = tomllib.loads(
        (Path(__file__).parents[1] / "pyproject.toml").read_text()
    )
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    assert repro.__version__.count(".") == 2
