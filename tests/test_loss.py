"""Tests for shareability loss (Definition 6)."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.model.request import Request
from repro.shareability.graph import ShareabilityGraph
from repro.shareability.loss import (
    residual_shareability_loss,
    shareability_loss,
    sharing_ratio,
)


def _request(rid: int, direct_cost: float = 10.0) -> Request:
    return Request(release_time=0.0, request_id=rid, source=0, destination=1,
                   deadline=100.0, direct_cost=direct_cost)


def _graph(edges, nodes=None) -> ShareabilityGraph:
    graph = ShareabilityGraph()
    node_ids = set(nodes or [])
    for u, v in edges:
        node_ids.add(u)
        node_ids.add(v)
    for rid in sorted(node_ids):
        graph.add_request(_request(rid))
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


@pytest.fixture()
def example3_graph() -> ShareabilityGraph:
    """Example 3 of the paper: the Figure 1(b) graph with r4 present."""
    return _graph([(1, 2), (1, 3), (2, 3), (2, 4)])


class TestDefinition6:
    def test_singleton_loss_is_degree(self, example3_graph):
        assert shareability_loss(example3_graph, [2]) == 3.0
        assert shareability_loss(example3_graph, [4]) == 1.0

    def test_example3_pair_r1_r3(self, example3_graph):
        """The paper computes SLoss({r1, r3}) = 2."""
        assert shareability_loss(example3_graph, [1, 3]) == 2.0

    def test_example3_pair_r1_r2(self, example3_graph):
        """The paper computes SLoss({r1, r2}) = 3."""
        assert shareability_loss(example3_graph, [1, 2]) == 3.0

    def test_structure_friendliness_ordering(self, example3_graph):
        """Substituting {r1, r3} is more structure-friendly than {r1, r2}."""
        assert shareability_loss(example3_graph, [1, 3]) < shareability_loss(
            example3_graph, [1, 2]
        )

    def test_duplicate_members_are_ignored(self, example3_graph):
        assert shareability_loss(example3_graph, [1, 3, 3]) == shareability_loss(
            example3_graph, [1, 3]
        )

    def test_empty_group_rejected(self, example3_graph):
        with pytest.raises(ReproError):
            shareability_loss(example3_graph, [])

    def test_unknown_member_rejected(self, example3_graph):
        with pytest.raises(ReproError):
            shareability_loss(example3_graph, [1, 99])


class TestResidualVariant:
    def test_singleton_residual_is_outside_degree(self, example3_graph):
        assert residual_shareability_loss(example3_graph, [2]) == 3.0

    def test_cohesive_groups_score_lower(self, example3_graph):
        triangle = residual_shareability_loss(example3_graph, [1, 2, 3])
        pair = residual_shareability_loss(example3_graph, [2, 3])
        singleton = residual_shareability_loss(example3_graph, [2])
        assert triangle <= pair <= singleton

    def test_residual_never_exceeds_full_loss(self, example3_graph):
        for group in ([1, 2], [1, 3], [2, 3], [1, 2, 3], [2, 4]):
            assert residual_shareability_loss(example3_graph, group) <= shareability_loss(
                example3_graph, group
            )


class TestSharingRatio:
    def test_ratio_is_cost_over_direct_sum(self):
        graph = _graph([(1, 2)])
        ratio = sharing_ratio(graph, [1, 2], total_cost=15.0)
        assert ratio == pytest.approx(15.0 / 20.0)

    def test_zero_direct_cost(self):
        graph = ShareabilityGraph()
        graph.add_request(_request(1, direct_cost=0.0))
        assert sharing_ratio(graph, [1], total_cost=5.0) == 0.0
