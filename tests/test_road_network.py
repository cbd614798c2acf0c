"""Tests for the road-network graph structure."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError
from repro.network.road_network import RoadNetwork


@pytest.fixture()
def triangle() -> RoadNetwork:
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    network.add_node(1, 100.0, 0.0)
    network.add_node(2, 0.0, 100.0)
    network.add_edge(0, 1, 10.0)
    network.add_edge(1, 2, 20.0, bidirectional=True)
    return network


class TestConstruction:
    def test_counts(self, triangle: RoadNetwork):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3  # 0->1, 1->2, 2->1

    def test_add_edge_requires_existing_nodes(self):
        network = RoadNetwork()
        network.add_node(0, 0, 0)
        with pytest.raises(NetworkError):
            network.add_edge(0, 7, 1.0)

    def test_negative_cost_rejected(self, triangle: RoadNetwork):
        with pytest.raises(NetworkError):
            triangle.add_edge(0, 2, -5.0)

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, triangle: RoadNetwork, cost: float):
        with pytest.raises(NetworkError):
            triangle.add_edge(0, 2, cost)
        assert not triangle.has_edge(0, 2)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_coordinates_rejected(self, triangle: RoadNetwork, x: float, y: float):
        with pytest.raises(NetworkError):
            triangle.add_node(9, x, y)
        with pytest.raises(NetworkError):
            triangle.add_node(0, x, y)  # a move too
        assert not triangle.has_node(9) and triangle.position(0) == (0.0, 0.0)

    def test_self_loop_rejected(self, triangle: RoadNetwork):
        with pytest.raises(NetworkError):
            triangle.add_edge(0, 0, 1.0)

    def test_duplicate_edge_updates_cost_without_double_count(self, triangle: RoadNetwork):
        before = triangle.num_edges
        triangle.add_edge(0, 1, 99.0)
        assert triangle.num_edges == before
        assert triangle.edge_cost(0, 1) == 99.0

    def test_re_adding_node_moves_it(self, triangle: RoadNetwork):
        triangle.add_node(0, 5.0, 5.0)
        assert triangle.position(0) == (5.0, 5.0)
        # Edges must survive a node move.
        assert triangle.has_edge(0, 1)

    def test_remove_edge(self, triangle: RoadNetwork):
        triangle.remove_edge(1, 2)
        assert not triangle.has_edge(1, 2)
        assert triangle.has_edge(2, 1)  # only the requested direction goes
        assert triangle.num_edges == 2
        assert dict(triangle.predecessors(2)) == {}
        assert dict(triangle.neighbors(1)) == {}
        with pytest.raises(NetworkError):
            triangle.remove_edge(1, 2)
        with pytest.raises(NetworkError):
            triangle.remove_edge(0, 2)

    def test_mutation_count_bumps_on_every_mutation(self):
        network = RoadNetwork()
        counts = [network.mutation_count]

        def bumped() -> None:
            counts.append(network.mutation_count)
            assert counts[-1] > counts[-2]

        network.add_node(0, 0.0, 0.0)
        bumped()
        network.add_node(1, 100.0, 0.0)
        bumped()
        network.add_edge(0, 1, 10.0)
        bumped()
        network.add_edge(0, 1, 25.0)  # reweight, num_edges unchanged
        bumped()
        network.add_node(0, 5.0, 5.0)  # node move
        bumped()
        network.remove_edge(0, 1)
        bumped()

    def test_mutation_count_unchanged_by_reads(self, triangle: RoadNetwork):
        before = triangle.mutation_count
        list(triangle.edges())
        triangle.edge_cost(0, 1)
        triangle.bounding_box()
        assert triangle.mutation_count == before


class TestQueries:
    def test_neighbors_and_predecessors(self, triangle: RoadNetwork):
        assert dict(triangle.neighbors(1)) == {2: 20.0}
        assert dict(triangle.predecessors(1)) == {0: 10.0, 2: 20.0}

    def test_edge_cost_missing(self, triangle: RoadNetwork):
        with pytest.raises(NetworkError):
            triangle.edge_cost(2, 0)

    def test_unknown_node_raises(self, triangle: RoadNetwork):
        with pytest.raises(NetworkError):
            list(triangle.neighbors(42))
        with pytest.raises(NetworkError):
            triangle.position(42)

    def test_euclidean(self, triangle: RoadNetwork):
        assert triangle.euclidean(0, 1) == pytest.approx(100.0)
        assert triangle.euclidean(1, 2) == pytest.approx(math.hypot(100, 100))

    def test_bounding_box(self, triangle: RoadNetwork):
        assert triangle.bounding_box() == (0.0, 0.0, 100.0, 100.0)

    def test_bounding_box_empty_network(self):
        with pytest.raises(NetworkError):
            RoadNetwork().bounding_box()

    def test_nearest_node(self, triangle: RoadNetwork):
        assert triangle.nearest_node(90.0, 5.0) == 1
        assert triangle.nearest_node(-10.0, -10.0) == 0

    def test_contains(self, triangle: RoadNetwork):
        assert 0 in triangle
        assert 99 not in triangle

    def test_edges_iteration(self, triangle: RoadNetwork):
        edges = set(triangle.edges())
        assert (0, 1, 10.0) in edges
        assert (1, 2, 20.0) in edges and (2, 1, 20.0) in edges

    def test_out_degree(self, triangle: RoadNetwork):
        assert triangle.out_degree(0) == 1
        assert triangle.out_degree(1) == 1
        assert triangle.out_degree(2) == 1


def _linear_scan(network: RoadNetwork, x: float, y: float) -> int:
    """The reference ``nearest_node``: one Python pass in insertion order."""
    best_node = -1
    best_dist = math.inf
    for node in network.nodes():
        nx_, ny_ = network.position(node)
        dist = (nx_ - x) ** 2 + (ny_ - y) ** 2
        if dist < best_dist:
            best_dist = dist
            best_node = node
    return best_node


def _network(points, ids) -> RoadNetwork:
    network = RoadNetwork()
    for node, (x, y) in zip(ids, points):
        network.add_node(node, x, y)
    return network


_coordinate = st.floats(-1e4, 1e4, allow_nan=False)
_far = st.floats(-1e7, 1e7, allow_nan=False)
_lattice = st.integers(-4, 4).map(lambda i: i * 37.5)
_half_lattice = st.integers(-10, 10).map(lambda i: i * 18.75)


@st.composite
def _nodes(draw, coordinate, min_size=1, max_size=40):
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=min_size,
                           max_size=max_size))
    ids = draw(st.permutations(range(1000, 1000 + len(points))))
    return points, ids


class TestNearestNode:
    """``nearest_node`` answers exactly what the linear scan answers."""

    @settings(max_examples=150, deadline=None)
    @given(_nodes(_coordinate), _far, _far)
    def test_random_points_and_far_queries(self, nodes, x, y):
        network = _network(*nodes)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)

    @settings(max_examples=150, deadline=None)
    @given(_nodes(_lattice), _half_lattice, _half_lattice)
    def test_lattice_ties_and_duplicates_go_to_the_earliest_node(self, nodes, x, y):
        # Lattice nodes (often duplicated) queried on and between lattice
        # points: many exact ties, which the earliest-added node must win.
        network = _network(*nodes)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)

    @settings(max_examples=100, deadline=None)
    @given(_nodes(_lattice, min_size=2), st.data())
    def test_moving_a_node_after_a_lookup_refreshes_the_answer(self, nodes, data):
        network = _network(*nodes)
        x, y = data.draw(_half_lattice), data.draw(_half_lattice)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)
        moved = data.draw(st.sampled_from(nodes[1]))
        network.add_node(moved, x + 0.5, y - 0.5)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)
        network.add_node(moved, x, y)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)
        network.add_node(-1, x, y)
        assert network.nearest_node(x, y) == _linear_scan(network, x, y)

    def test_python_squares_break_ties_not_numpy_squares(self):
        # libm's a ** 2 is one ulp above a * a here: the Python expression
        # ranks node 2 strictly first, numpy's squares tie the two nodes
        # (where an argmin would answer node 1).
        network = _network([(-5573.367140105487, 0.0), (5573.367050393112, 1.0)], [1, 2])
        assert _linear_scan(network, 0.0, 0.0) == 2
        assert network.nearest_node(0.0, 0.0) == 2

    def test_new_node_at_the_query_point_wins_after_a_lookup(self, triangle: RoadNetwork):
        # (50, 50) is equidistant from all three nodes: the first one wins.
        assert triangle.nearest_node(50.0, 50.0) == 0
        triangle.add_node(7, 50.0, 50.0)
        assert triangle.nearest_node(50.0, 50.0) == 7
        triangle.add_node(7, 500.0, 500.0)
        assert triangle.nearest_node(50.0, 50.0) == 0

    def test_empty_network_raises(self):
        with pytest.raises(NetworkError):
            RoadNetwork().nearest_node(0.0, 0.0)

