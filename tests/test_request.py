"""Tests for the request data model (Definition 1)."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.config import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.model.request import Request


class TestCreation:
    def test_create_derives_deadline_from_gamma(self):
        request = Request.create(
            request_id=1, source=0, destination=5, release_time=100.0,
            direct_cost=200.0, gamma=1.5,
        )
        assert request.deadline == pytest.approx(100.0 + 1.5 * 200.0)
        assert request.direct_cost == 200.0

    def test_create_requires_gamma_above_one(self):
        with pytest.raises(ConfigurationError):
            Request.create(
                request_id=1, source=0, destination=5, release_time=0.0,
                direct_cost=10.0, gamma=1.0,
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Request(release_time=0.0, request_id=1, source=0, destination=1, riders=0)
        with pytest.raises(ConfigurationError):
            Request(release_time=0.0, request_id=1, source=0, destination=1,
                    direct_cost=-1.0)
        with pytest.raises(ConfigurationError):
            Request(release_time=10.0, request_id=1, source=0, destination=1,
                    deadline=5.0)
        with pytest.raises(ConfigurationError):
            Request(release_time=0.0, request_id=1, source=0, destination=1,
                    max_wait=-5.0)

    def test_requests_sort_by_release_time(self):
        early = Request(release_time=1.0, request_id=9, source=0, destination=1)
        late = Request(release_time=2.0, request_id=1, source=0, destination=1)
        assert sorted([late, early]) == [early, late]


class TestDeadlines:
    def test_latest_pickup_limited_by_waiting_time(self):
        request = Request.create(
            request_id=1, source=0, destination=1, release_time=0.0,
            direct_cost=100.0, gamma=2.0, max_wait=30.0,
        )
        # deadline slack would allow 100 s, but the rider only waits 30 s.
        assert request.latest_pickup == pytest.approx(30.0)

    def test_latest_pickup_limited_by_deadline(self):
        request = Request.create(
            request_id=1, source=0, destination=1, release_time=0.0,
            direct_cost=100.0, gamma=1.2, max_wait=500.0,
        )
        assert request.latest_pickup == pytest.approx(20.0)

    def test_detour_budget(self):
        request = Request.create(
            request_id=1, source=0, destination=1, release_time=50.0,
            direct_cost=100.0, gamma=1.5,
        )
        assert request.detour_budget == pytest.approx(50.0)

    def test_expiry(self):
        request = Request.create(
            request_id=1, source=0, destination=1, release_time=0.0,
            direct_cost=100.0, gamma=1.5, max_wait=40.0,
        )
        assert not request.is_expired(39.9)
        assert request.is_expired(40.1)

    def test_defaults_allow_unbounded_wait(self):
        request = Request(release_time=0.0, request_id=1, source=0, destination=1,
                          deadline=100.0, direct_cost=60.0)
        assert request.latest_pickup == pytest.approx(40.0)


class TestAsDictionaryKey:
    """A request hashes as its id; everything else still sees the eight
    fields and only them -- ``latest_pickup`` is stored, not a field."""

    @staticmethod
    def _request(**overrides) -> Request:
        values = dict(release_time=3.0, request_id=7, source=0, destination=5, riders=2,
                      deadline=100.0, direct_cost=20.0, max_wait=30.0)
        return Request(**{**values, **overrides})

    def test_hash_is_the_request_id(self):
        request = self._request()
        assert hash(request) == hash(7)
        assert hash(self._request()) == hash(request)
        assert {request: "kept"}[self._request()] == "kept"

    def test_same_id_with_another_deadline_collides_and_stays_distinct(self):
        request = self._request()
        tighter = dataclasses.replace(request, deadline=40.0)
        assert hash(tighter) == hash(request)
        assert tighter != request
        assert {request: "loose", tighter: "tight"} == {tighter: "tight", request: "loose"}
        assert len({request, tighter}) == 2

    def test_latest_pickup_is_stored_once_and_follows_replace(self):
        request = self._request()
        assert request.latest_pickup == 33.0
        assert vars(request)["latest_pickup"] == 33.0
        assert dataclasses.replace(request, deadline=40.0).latest_pickup == 20.0
        assert dataclasses.replace(request, max_wait=5.0).latest_pickup == 8.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.latest_pickup = 0.0

    def test_fields_equality_order_and_repr_are_unchanged(self):
        request = self._request()
        names = [field.name for field in dataclasses.fields(request)]
        assert names == ["release_time", "request_id", "source", "destination",
                         "riders", "deadline", "direct_cost", "max_wait"]
        assert dataclasses.asdict(request) == dict(
            release_time=3.0, request_id=7, source=0, destination=5, riders=2,
            deadline=100.0, direct_cost=20.0, max_wait=30.0,
        )
        assert dataclasses.astuple(request) == (3.0, 7, 0, 5, 2, 100.0, 20.0, 30.0)
        assert repr(request) == (
            "Request(release_time=3.0, request_id=7, source=0, destination=5, "
            "riders=2, deadline=100.0, direct_cost=20.0, max_wait=30.0)"
        )
        assert request == self._request()
        assert request < self._request(request_id=8) < self._request(release_time=4.0)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda request: pickle.loads(pickle.dumps(request)),
    ])
    def test_copies_and_pickles_round_trip(self, clone):
        request = self._request()
        twin = clone(request)
        assert twin == request and hash(twin) == hash(request)
        assert twin.latest_pickup == request.latest_pickup
        assert vars(twin) == vars(request)


class TestIntegrationWithConfig:
    def test_factory_fixture_consistency(self, make_request, oracle, config: SimulationConfig):
        request = make_request(3, 0, 11, release_time=5.0)
        assert request.direct_cost == pytest.approx(oracle.cost(0, 11))
        assert request.deadline == pytest.approx(5.0 + config.gamma * request.direct_cost)
