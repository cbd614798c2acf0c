"""Tests for the uniform grid spatial index."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import NetworkError
from repro.network.grid_index import GridIndex


@pytest.fixture()
def index() -> GridIndex:
    return GridIndex((0.0, 0.0, 1000.0, 1000.0), cells_per_axis=10)


class TestMaintenance:
    def test_insert_and_len(self, index: GridIndex):
        index.insert("a", 10, 10)
        index.insert("b", 500, 500)
        assert len(index) == 2
        assert "a" in index and "c" not in index

    def test_insert_same_key_moves(self, index: GridIndex):
        index.insert("a", 10, 10)
        index.insert("a", 900, 900)
        assert len(index) == 1
        assert index.position("a") == (900.0, 900.0)
        assert index.query_radius(10, 10, 50) == []

    def test_remove(self, index: GridIndex):
        index.insert("a", 10, 10)
        index.remove("a")
        assert len(index) == 0
        index.remove("a")  # idempotent

    def test_move(self, index: GridIndex):
        index.insert("a", 10, 10)
        index.move("a", 700, 700)
        assert "a" in index.query_radius(700, 700, 5)

    def test_clear(self, index: GridIndex):
        index.insert("a", 1, 1)
        index.clear()
        assert len(index) == 0

    def test_position_of_missing_key_raises(self, index: GridIndex):
        with pytest.raises(NetworkError):
            index.position("ghost")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(NetworkError):
            GridIndex((0, 0, 0, 10))
        with pytest.raises(NetworkError):
            GridIndex((0, 0, 10, 10), cells_per_axis=0)


class TestQueries:
    def test_radius_query_matches_brute_force(self):
        rng = random.Random(4)
        index = GridIndex((0, 0, 1000, 1000), cells_per_axis=8)
        points = {i: (rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(200)}
        for key, (x, y) in points.items():
            index.insert(key, x, y)
        for _ in range(20):
            qx, qy, radius = rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(10, 400)
            expected = {
                key
                for key, (x, y) in points.items()
                if math.hypot(x - qx, y - qy) <= radius
            }
            assert set(index.query_radius(qx, qy, radius)) == expected

    def test_radius_query_outside_bounds_is_clamped(self, index: GridIndex):
        index.insert("a", 5, 5)
        assert index.query_radius(-50, -50, 100) == ["a"]

    def test_negative_radius_rejected(self, index: GridIndex):
        with pytest.raises(NetworkError):
            index.query_radius(0, 0, -1)

    def test_k_nearest_one(self, index: GridIndex):
        index.insert("a", 100, 100)
        index.insert("b", 900, 900)
        assert [key for _, key in index.k_nearest(120, 120, 1)] == ["a"]
        assert min(index.k_nearest(850, 880, 1))[1] == "b"

    def test_k_nearest_empty_index(self, index: GridIndex):
        assert index.k_nearest(0, 0, 1) == []

    def test_radius_query_ignores_keys_beyond_the_radius(self, index: GridIndex):
        index.insert("a", 100, 100)
        assert index.query_radius(100, 400, 300) == ["a"]
        assert index.query_radius(100, 400, 299) == []

    def test_k_nearest_returns_distances_and_the_ties_of_the_kth(self, index: GridIndex):
        for key, (x, y) in {"a": (500, 500), "b": (500, 600), "c": (600, 500),
                            "d": (400, 500), "e": (900, 900)}.items():
            index.insert(key, x, y)
        found = index.k_nearest(500, 500, 2)
        # b, c and d are equally far: all three come with the second nearest.
        assert {("a", 0.0), ("b", 100.0), ("c", 100.0), ("d", 100.0)} <= {
            (key, distance) for distance, key in found
        }
        assert len(index.k_nearest(500, 500, 99)) == 5
        assert index.k_nearest(500, 500, 0) == []
        assert index.k_nearest(-4000, 9000, 1) != []

    def test_cell_of_point_and_center(self, index: GridIndex):
        cell = index.cell_of_point(15, 15)
        assert cell == index.cell_of_point(10, 10) == index.cell_of_point(20, 20)
        cx, cy = index.cell_center(cell)
        assert 0 <= cx <= 100 and 0 <= cy <= 100

    def test_for_network_covers_all_nodes(self, grid_network):
        index = GridIndex.for_network(grid_network, cells_per_axis=4)
        for node in grid_network.nodes():
            x, y = grid_network.position(node)
            index.insert(node, x, y)
        assert len(index) == grid_network.num_nodes

    def test_estimated_memory_positive(self, index: GridIndex):
        index.insert("a", 1, 1)
        assert index.estimated_memory_bytes() > 0
