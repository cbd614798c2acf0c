"""Typed, versioned request/response/event models of the dispatch service.

The service boundary speaks these schemas instead of the internal data
model: a :class:`RideRequest` is what a client submits, an
:class:`AssignmentEvent` is what streams back out, and a
:class:`ServiceStats` snapshot is what the stats endpoint returns.  All
three are dependency-free dataclasses mirroring the pydantic
request/response shape of the NES-Van-Route service (SNIPPETS.md Snippet
3): field validation at construction, explicit ``schema_version`` stamps,
and loss-free ``dict`` / JSON round-trips.

Stability policy (documented in DESIGN.md): within one major
``SCHEMA_VERSION`` fields are only ever *added* with defaults, so payloads
written by an older minor revision keep parsing; an incompatible change
bumps the version and :func:`check_schema_version` rejects the mismatch
loudly instead of misreading the payload.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, TypeVar

from ..config import SimulationConfig
from ..exceptions import SchemaError, UnreachableError
from ..model.request import Request
from ..network.shortest_path import DistanceOracle

#: Major version stamped on every payload this module writes.
SCHEMA_VERSION = 1


def check_schema_version(payload: dict[str, Any], *, kind: str) -> None:
    """Reject payloads written by an incompatible schema major version."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version < 1:
        raise SchemaError(f"{kind}: schema_version must be a positive integer")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{kind}: incompatible schema_version {version} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )


def _typed(value: Any, annotation: str, *, name: str, kind: str) -> Any:
    """``value`` checked against a field's annotation (floats widened from ints).

    ``bool`` is not an ``int`` here, and a float must be finite: NaN passes
    every range check a model makes.  An enum field maps its wire value to
    the member.
    """
    if value is None and annotation.endswith(" | None"):
        return None
    expected = annotation.removesuffix(" | None")
    if expected == "int" and type(value) is int:
        return value
    if expected == "float" and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise SchemaError(f"{kind}: {name} must be finite")
        return number
    if expected == "dict[str, int]" and type(value) is dict and all(
        type(key) is str and type(count) is int for key, count in value.items()
    ):
        return value
    if expected in _ENUMS:
        try:
            return _ENUMS[expected](value)
        except ValueError as exc:
            raise SchemaError(f"{kind}: {exc}") from exc
    raise SchemaError(f"{kind}: {name} must be {expected}, got {value!r}")


class RejectionReason(enum.Enum):
    """Why the service refused (or failed) to serve a request."""

    #: The ingestion queue was full and the admission policy is ``reject``.
    QUEUE_FULL = "queue_full"
    #: The queue was full and ``drop_oldest`` shed this (older) request.
    SHED_OLDEST = "shed_oldest"
    #: A request with the same ``request_id`` was already admitted.
    DUPLICATE_REQUEST = "duplicate_request"
    #: Origin or destination is not a node of the service's road network.
    UNKNOWN_NODE = "unknown_node"
    #: No route exists from origin to destination.
    UNREACHABLE = "unreachable"
    #: The service is shutting down and no longer admits requests.
    SHUTTING_DOWN = "shutting_down"
    #: The dispatcher rejected the request (online baselines reject
    #: requests they cannot place immediately).
    DISPATCH_REJECTED = "dispatch_rejected"
    #: The request expired in the pending pool before any pick-up fit.
    EXPIRED = "expired"


class AssignmentEventKind(enum.Enum):
    """Lifecycle stages an admitted request streams to subscribers."""

    ASSIGNED = "assigned"
    REJECTED = "rejected"
    EXPIRED = "expired"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


#: The enum field types, by the name their annotations use.
_ENUMS: dict[str, type[enum.Enum]] = {
    cls.__name__: cls for cls in (AssignmentEventKind, RejectionReason)
}

_Model = TypeVar("_Model", bound="_Schema")


@dataclass(frozen=True)
class _Schema:
    """The wire format every schema shares: the ``schema_version`` gate
    (:func:`check_schema_version`) after the model's own checks, ``dict`` /
    JSON payloads with enums flattened to their wire values, and a parser
    that raises :class:`SchemaError` on any bad payload, never ``TypeError``.
    """

    def __post_init__(self) -> None:
        self._validate()
        check_schema_version(vars(self), kind=type(self).__name__)

    def _validate(self) -> None:
        """The model's own field checks."""

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict payload (JSON-safe, round-trips via :meth:`from_dict`)."""
        return {
            name: value.value if isinstance(value, enum.Enum) else value
            for name, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls: type[_Model], payload: dict[str, Any]) -> _Model:
        """Parse a payload: version gate, unknown and missing keys, field types."""
        kind = cls.__name__
        if not isinstance(payload, dict):
            raise SchemaError(f"{kind}: payload must be an object")
        check_schema_version(payload, kind=kind)
        known = {field.name: field for field in fields(cls)}
        unknown = [key for key in payload if key not in known]
        if unknown:
            raise SchemaError(f"{kind}: unknown fields {sorted(unknown, key=str)!r}")
        missing = [
            name for name, field in known.items()
            if name not in payload and field.default is MISSING
        ]
        if missing:
            raise SchemaError(f"{kind}: missing fields {missing!r}")
        return cls(**{
            name: _typed(value, str(known[name].type), name=name, kind=kind)
            for name, value in payload.items()
        })

    def to_json(self) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: type[_Model], text: str) -> _Model:
        """Parse a JSON string written by :meth:`to_json`."""
        kind = cls.__name__
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{kind}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SchemaError(f"{kind}: JSON payload must be an object")
        return cls.from_dict(payload)


@dataclass(frozen=True)
class RideRequest(_Schema):
    """One ride request as submitted over the service boundary.

    Only the trip itself is mandatory; ``deadline`` / ``direct_cost`` /
    ``max_wait`` may be supplied by the client (replay of a recorded trace
    keeps batch-mode parity exact) or left ``None`` for the service to
    derive from its oracle and simulation configuration at admission.
    """

    request_id: int
    origin: int
    destination: int
    release_time: float
    riders: int = 1
    max_wait: float | None = None
    deadline: float | None = None
    direct_cost: float | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        if self.request_id < 0:
            raise SchemaError("request_id must be non-negative")
        if self.origin < 0 or self.destination < 0:
            raise SchemaError(
                f"request {self.request_id}: node ids must be non-negative"
            )
        if self.riders < 1:
            raise SchemaError(
                f"request {self.request_id} must carry at least one rider"
            )
        # NaN passes every range check below, so finiteness comes first.
        for name in ("release_time", "max_wait", "deadline"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SchemaError(
                    f"request {self.request_id}: {name} must be finite"
                )
        if self.max_wait is not None and self.max_wait < 0:
            raise SchemaError(
                f"request {self.request_id}: max_wait must be non-negative"
            )
        if self.deadline is not None and self.deadline < self.release_time:
            raise SchemaError(
                f"request {self.request_id}: deadline precedes release_time"
            )
        if self.direct_cost is not None and (
            not math.isfinite(self.direct_cost) or self.direct_cost < 0
        ):
            raise SchemaError(
                f"request {self.request_id}: direct_cost must be finite "
                "and non-negative"
            )

    # ------------------------------------------------------------------ #
    # bridges to the internal data model
    # ------------------------------------------------------------------ #
    @classmethod
    def from_request(cls, request: Request) -> "RideRequest":
        """Wrap an internal :class:`~repro.model.request.Request` loss-free.

        Deadline, direct cost and waiting budget are carried along, so
        converting back with :meth:`to_request` reproduces the request
        exactly -- the property the service/batch parity gate relies on.
        """
        return cls(
            request_id=request.request_id,
            origin=request.source,
            destination=request.destination,
            release_time=request.release_time,
            riders=request.riders,
            max_wait=request.max_wait,
            deadline=request.deadline,
            direct_cost=request.direct_cost,
        )

    def to_request(
        self, *, oracle: DistanceOracle, config: SimulationConfig
    ) -> Request:
        """Materialise the internal request the dispatcher operates on.

        Missing fields are derived the same way the workload generator
        derives them: ``direct_cost`` from the service oracle,
        ``deadline = release + gamma * direct_cost`` and ``max_wait`` from
        the simulation configuration.  Raises
        :class:`~repro.exceptions.UnreachableError` when no route exists.
        """
        direct_cost = self.direct_cost
        if direct_cost is None:
            direct_cost = oracle.cost(self.origin, self.destination)
            if math.isinf(direct_cost):
                raise UnreachableError(
                    f"request {self.request_id}: no route "
                    f"{self.origin} -> {self.destination}"
                )
        deadline = self.deadline
        if deadline is None:
            deadline = self.release_time + config.gamma * direct_cost
        max_wait = self.max_wait
        if max_wait is None:
            max_wait = config.max_wait
        return Request(
            request_id=self.request_id,
            source=self.origin,
            destination=self.destination,
            riders=self.riders,
            release_time=self.release_time,
            deadline=deadline,
            direct_cost=direct_cost,
            max_wait=max_wait,
        )


@dataclass(frozen=True)
class AssignmentEvent(_Schema):
    """One lifecycle event of an admitted request, streamed to subscribers."""

    event: AssignmentEventKind
    time: float
    request_id: int
    #: Serving vehicle for ``assigned`` / ``completed`` events.
    vehicle_id: int | None = None
    #: Index of the dispatch batch that produced the event, when batch-bound.
    batch_index: int | None = None
    #: Rejection reason for ``rejected`` / ``expired`` events.
    reason: RejectionReason | None = None
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        if not isinstance(self.event, AssignmentEventKind):
            raise SchemaError(f"event must be an AssignmentEventKind, got {self.event!r}")
        if self.reason is not None and not isinstance(self.reason, RejectionReason):
            raise SchemaError(f"reason must be a RejectionReason, got {self.reason!r}")
        if not math.isfinite(self.time):
            raise SchemaError("event time must be finite")
        if self.request_id < 0:
            raise SchemaError("request_id must be non-negative")
        if self.event is AssignmentEventKind.ASSIGNED and self.vehicle_id is None:
            raise SchemaError(
                f"assigned event for request {self.request_id} needs a vehicle_id"
            )


@dataclass(frozen=True)
class ServiceStats(_Schema):
    """Point-in-time snapshot returned by the service's stats endpoint."""

    #: Requests offered to the service (accepted + rejected at admission).
    received: int = 0
    #: Requests admitted into the ingestion queue.
    accepted: int = 0
    #: Admission rejections by :class:`RejectionReason` wire value.
    rejected: dict[str, int] | None = None
    #: Requests assigned to a vehicle so far.
    assigned: int = 0
    #: Requests dropped off so far.
    completed: int = 0
    #: Requests that expired in the pending pool.
    expired: int = 0
    #: Requests the dispatcher rejected outright.
    dispatch_rejected: int = 0
    #: Dispatch batches processed.
    batches: int = 0
    #: Requests currently queued, and the queue's high-water mark.
    queue_depth: int = 0
    queue_high_watermark: int = 0
    #: Assignment events dropped because the history buffer was full.
    events_dropped: int = 0
    #: Virtual time of the last processed batch boundary.
    sim_time: float = 0.0
    #: Assigned / accepted so far (1.0 while nothing was accepted yet).
    service_rate: float = 1.0
    schema_version: int = SCHEMA_VERSION

    def _validate(self) -> None:
        for name in (
            "received", "accepted", "assigned", "completed", "expired",
            "dispatch_rejected", "batches", "queue_depth",
            "queue_high_watermark", "events_dropped",
        ):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be non-negative")
        if self.accepted > self.received:
            raise SchemaError("accepted must not exceed received")
        for reason, count in (self.rejected or {}).items():
            if count < 0 or reason not in {r.value for r in RejectionReason}:
                raise SchemaError(f"rejected[{reason!r}] = {count} is not a reason's count")
        if not 0.0 <= self.service_rate <= 1.0:
            raise SchemaError(
                f"service_rate must be in [0, 1] (got {self.service_rate})"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict payload; no rejections are written as ``{}``."""
        return super().to_dict() | {"rejected": dict(self.rejected or {})}


__all__ = [
    "SCHEMA_VERSION",
    "AssignmentEvent",
    "AssignmentEventKind",
    "RejectionReason",
    "RideRequest",
    "ServiceStats",
    "check_schema_version",
]
