"""Tests for the shareability graph data structure."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import ReproError
from repro.model.request import Request
from repro.shareability.graph import ShareabilityGraph


def _request(rid: int) -> Request:
    return Request(release_time=0.0, request_id=rid, source=0, destination=1,
                   deadline=100.0, direct_cost=10.0)


@pytest.fixture()
def paper_graph() -> ShareabilityGraph:
    """The shareability graph of Figure 1(b): triangle r1-r2-r3 plus r2-r4."""
    graph = ShareabilityGraph()
    for rid in (1, 2, 3, 4):
        graph.add_request(_request(rid))
    graph.add_edge(1, 2)
    graph.add_edge(1, 3)
    graph.add_edge(2, 3)
    graph.add_edge(2, 4)
    return graph


class TestStructure:
    def test_counts(self, paper_graph: ShareabilityGraph):
        assert paper_graph.num_nodes == 4
        assert paper_graph.num_edges == 4
        assert len(paper_graph) == 4

    def test_degrees_are_shareability(self, paper_graph: ShareabilityGraph):
        assert paper_graph.degree(2) == 3
        assert paper_graph.degree(4) == 1
        assert paper_graph.degrees() == {1: 2, 2: 3, 3: 2, 4: 1}

    def test_add_request_idempotent(self, paper_graph: ShareabilityGraph):
        paper_graph.add_request(_request(1))
        assert paper_graph.num_nodes == 4
        assert paper_graph.degree(1) == 2

    def test_duplicate_edge_not_double_counted(self, paper_graph: ShareabilityGraph):
        paper_graph.add_edge(1, 2)
        assert paper_graph.num_edges == 4

    def test_self_edge_rejected(self, paper_graph: ShareabilityGraph):
        with pytest.raises(ReproError):
            paper_graph.add_edge(1, 1)

    def test_edge_requires_existing_nodes(self, paper_graph: ShareabilityGraph):
        with pytest.raises(ReproError):
            paper_graph.add_edge(1, 99)

    def test_remove_request(self, paper_graph: ShareabilityGraph):
        paper_graph.remove_request(2)
        assert paper_graph.num_nodes == 3
        assert paper_graph.num_edges == 1
        assert paper_graph.degree(4) == 0
        paper_graph.remove_request(2)  # idempotent

    def test_unknown_node_queries_raise(self, paper_graph: ShareabilityGraph):
        with pytest.raises(ReproError):
            paper_graph.degree(99)
        with pytest.raises(ReproError):
            paper_graph.neighbors(99)
        with pytest.raises(ReproError):
            paper_graph.request(99)


class TestQueries:
    def test_neighbors_and_has_edge(self, paper_graph: ShareabilityGraph):
        assert paper_graph.neighbors(2) == {1, 3, 4}
        assert paper_graph.has_edge(1, 3)
        assert not paper_graph.has_edge(1, 4)

    def test_is_clique(self, paper_graph: ShareabilityGraph):
        assert paper_graph.is_clique({1, 2, 3})
        assert paper_graph.is_clique({2, 4})
        assert not paper_graph.is_clique({1, 2, 4})
        assert paper_graph.is_clique({1})
        assert paper_graph.is_clique(set())

    def test_edges_listed_once(self, paper_graph: ShareabilityGraph):
        edges = list(paper_graph.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)

    def test_degree_sum_equals_twice_edges(self, paper_graph: ShareabilityGraph):
        assert sum(paper_graph.degrees().values()) == 2 * paper_graph.num_edges

    def test_copy_is_independent(self, paper_graph: ShareabilityGraph):
        clone = paper_graph.copy()
        clone.remove_request(2)
        assert paper_graph.num_nodes == 4
        assert clone.num_nodes == 3

    def test_networkx_export(self, paper_graph: ShareabilityGraph):
        graph = paper_graph.to_networkx()
        assert isinstance(graph, nx.Graph)
        assert graph.number_of_edges() == 4
        assert nx.is_connected(graph)

    def test_memory_estimate_grows_with_edges(self):
        small = ShareabilityGraph()
        small.add_request(_request(1))
        large = ShareabilityGraph()
        for rid in range(10):
            large.add_request(_request(rid))
        for rid in range(1, 10):
            large.add_edge(0, rid)
        assert large.estimated_memory_bytes() > small.estimated_memory_bytes()
