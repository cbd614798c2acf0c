"""Batching of dynamically arriving requests (Definition 4).

The Batched Dynamic Ridesharing Problem handles the requests released during
each period ``Delta`` together.  :class:`BatchStream` slices a request trace
into consecutive batches; the simulator consumes them in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from ..exceptions import ConfigurationError
from .request import Request


@dataclass(frozen=True)
class Batch:
    """The requests released during one batching period ``[start, end)``."""

    index: int
    start_time: float
    end_time: float
    requests: tuple[Request, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)


class BatchStream:
    """Partition a request trace into batches of length ``batch_period``.

    Requests are assigned to the batch covering their release time; batch
    boundaries are multiples of ``batch_period`` starting at the release time
    of the earliest request.  Empty batches between two non-empty ones are
    emitted so that the simulator's clock advances uniformly, matching the
    paper's tumbling-window model.
    """

    def __init__(self, requests: Sequence[Request], batch_period: float) -> None:
        if batch_period <= 0:
            raise ConfigurationError("batch_period must be positive")
        self._batch_period = float(batch_period)
        self._requests = sorted(requests, key=lambda r: (r.release_time, r.request_id))
        if self._requests:
            self._start = math.floor(
                self._requests[0].release_time / batch_period
            ) * batch_period
        else:
            self._start = 0.0

    @property
    def batch_period(self) -> float:
        """Length of each batch in seconds."""
        return self._batch_period

    @property
    def start_time(self) -> float:
        """Start of the first batch."""
        return self._start

    def __iter__(self) -> Iterator[Batch]:
        if not self._requests:
            return
        period = self._batch_period
        index = 0
        cursor = 0
        batch_start = self._start
        n = len(self._requests)
        while cursor < n:
            batch_end = batch_start + period
            members: list[Request] = []
            while cursor < n and self._requests[cursor].release_time < batch_end:
                members.append(self._requests[cursor])
                cursor += 1
            yield Batch(
                index=index,
                start_time=batch_start,
                end_time=batch_end,
                requests=tuple(members),
            )
            index += 1
            batch_start = batch_end
