"""Tests for batching of dynamically arriving requests."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.model.batch import Batch, BatchStream
from repro.model.request import Request


def _request(rid: int, release: float) -> Request:
    return Request(release_time=release, request_id=rid, source=0, destination=1,
                   deadline=release + 100.0, direct_cost=50.0)


class TestBatchStream:
    def test_partitions_by_release_time(self):
        requests = [_request(i, t) for i, t in enumerate([0.5, 1.0, 3.5, 4.0, 9.9])]
        batches = list(BatchStream(requests, batch_period=3.0))
        assert [len(b) for b in batches] == [2, 2, 0, 1]
        assert batches[0].start_time == 0.0
        assert batches[0].end_time == 3.0
        assert [r.request_id for r in batches[0]] == [0, 1]

    def test_requests_sorted_within_batch(self):
        requests = [_request(2, 1.0), _request(1, 0.2), _request(3, 0.2)]
        batches = list(BatchStream(requests, batch_period=5.0))
        assert [r.request_id for r in batches[0]] == [1, 3, 2]

    def test_start_time_alignment(self):
        requests = [_request(0, 7.2)]
        stream = BatchStream(requests, batch_period=3.0)
        assert stream.start_time == pytest.approx(6.0)
        batch = next(iter(stream))
        assert batch.start_time <= 7.2 < batch.end_time

    def test_every_request_appears_exactly_once(self):
        requests = [_request(i, i * 0.7) for i in range(50)]
        batches = list(BatchStream(requests, batch_period=2.0))
        seen = [r.request_id for batch in batches for r in batch]
        assert sorted(seen) == list(range(50))

    def test_empty_stream(self):
        stream = BatchStream([], batch_period=3.0)
        assert list(stream) == []

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            BatchStream([], batch_period=0.0)

    def test_batch_index_is_sequential(self):
        requests = [_request(i, i * 2.0) for i in range(10)]
        batches = list(BatchStream(requests, batch_period=3.0))
        assert [b.index for b in batches] == list(range(len(batches)))


class TestBatch:
    def test_iteration_and_len(self):
        requests = (_request(0, 0.0), _request(1, 1.0))
        batch = Batch(index=0, start_time=0.0, end_time=3.0, requests=requests)
        assert len(batch) == 2
        assert list(batch) == list(requests)
