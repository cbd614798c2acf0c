"""Tests for the two-request shareability predicate."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.insertion.pair_schedules import are_shareable, best_pair_schedule, pair_orderings


class TestOrderings:
    def test_three_candidate_orderings(self, make_request):
        a = make_request(1, 0, 5)
        b = make_request(2, 1, 4)
        orderings = pair_orderings(a, b)
        assert len(orderings) == 3
        for schedule in orderings:
            assert schedule.satisfies_order()
            assert schedule[0].request.request_id == 1
            assert schedule.request_ids() == {1, 2}


class TestShareability:
    def test_same_corridor_requests_are_shareable(self, make_request, oracle):
        a = make_request(1, 0, 4)      # eastbound along the bottom row
        b = make_request(2, 1, 5)      # same corridor, released together
        assert are_shareable(a, b, oracle, capacity=3)

    def test_symmetry(self, make_request, oracle):
        a = make_request(1, 0, 4)
        b = make_request(2, 1, 5)
        assert are_shareable(a, b, oracle) == are_shareable(b, a, oracle)

    def test_far_apart_tight_deadlines_not_shareable(self, make_request, oracle):
        a = make_request(1, 0, 1, gamma=1.2, max_wait=10.0)
        b = make_request(2, 35, 34, gamma=1.2, max_wait=10.0)
        assert not are_shareable(a, b, oracle, capacity=3)

    def test_capacity_blocks_sharing(self, make_request, oracle):
        a = make_request(1, 0, 4, riders=2)
        b = make_request(2, 1, 5, riders=2)
        assert not are_shareable(a, b, oracle, capacity=3)
        assert are_shareable(a, b, oracle, capacity=4)

    def test_sequential_service_counts_as_shareable(self, make_request, oracle):
        # Second request released much later and reachable after finishing the
        # first trip; only the sequential ordering <s_a, e_a, s_b, e_b> works.
        a = make_request(1, 0, 2, release_time=0.0)
        b = make_request(2, 2, 4, release_time=a.direct_cost + 5.0,
                         max_wait=60.0, gamma=2.0)
        schedule, cost = best_pair_schedule(a, b, oracle, capacity=3)
        assert schedule is not None
        assert math.isfinite(cost)

    def test_best_pair_schedule_returns_cheapest_feasible(self, make_request, oracle):
        a = make_request(1, 0, 4)
        b = make_request(2, 1, 5)
        schedule, cost = best_pair_schedule(a, b, oracle, capacity=3)
        assert schedule is not None
        evaluation = schedule.evaluate(
            oracle, origin=a.source, departure_time=a.release_time, capacity=3
        )
        assert evaluation.feasible
        assert cost == pytest.approx(evaluation.travel_cost)
        # No other anchored ordering is cheaper.
        for candidate in pair_orderings(a, b):
            result = candidate.evaluate(
                oracle, origin=a.source, departure_time=a.release_time, capacity=3
            )
            if result.feasible:
                assert cost <= result.travel_cost + 1e-9

    def test_anchor_that_cannot_be_picked_up_in_time_shares_nothing(self, make_request, oracle):
        # A direct cost beyond the whole time window puts the latest pick-up
        # before the release: the anchor's own first stop is already late.
        a = make_request(1, 0, 4)
        b = make_request(2, 1, 5)
        assert best_pair_schedule(a, b, oracle, capacity=3)[0] is not None
        hopeless = replace(a, direct_cost=a.deadline - a.release_time + 1.0)
        assert best_pair_schedule(hopeless, b, oracle, capacity=3) == (None, math.inf)

    def test_request_does_not_pair_with_itself(self, make_request, oracle):
        a = make_request(1, 0, 4)
        assert best_pair_schedule(a, a, oracle, capacity=3) == (None, math.inf)

    def test_infeasible_pair_returns_none_and_inf(self, make_request, oracle):
        a = make_request(1, 0, 1, gamma=1.2, max_wait=5.0)
        b = make_request(2, 35, 30, gamma=1.2, max_wait=5.0)
        schedule, cost = best_pair_schedule(a, b, oracle, capacity=3)
        assert schedule is None
        assert math.isinf(cost)
