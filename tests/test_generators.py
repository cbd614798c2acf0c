"""Tests for the synthetic road-network generators."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.exceptions import WorkloadError
from repro.network.generators import (
    CITY_PRESETS,
    grid_city,
    make_city,
    ring_radial_city,
)


class TestGridCity:
    def test_size_and_positions(self):
        city = grid_city(4, 5, block_length=100.0, perturbation=0.0, seed=0)
        assert city.num_nodes == 20
        assert city.position(0) == (0.0, 0.0)
        assert city.position(19) == (4 * 100.0, 3 * 100.0)

    def test_strongly_connected(self):
        city = grid_city(6, 6, perturbation=0.2, seed=3)
        graph = city.to_networkx()
        assert nx.is_strongly_connected(graph)

    def test_edge_costs_positive(self):
        city = grid_city(5, 5, perturbation=0.4, seed=7)
        assert all(cost > 0 for _, _, cost in city.edges())

    def test_no_perturbation_gives_uniform_costs(self):
        city = grid_city(4, 4, block_length=200.0, speed=10.0, perturbation=0.0, seed=0)
        costs = {round(cost, 6) for _, _, cost in city.edges()}
        assert costs == {20.0}

    def test_expressways_add_edges(self):
        base = grid_city(10, 10, perturbation=0.0, seed=5, express_fraction=0.0)
        express = grid_city(10, 10, perturbation=0.0, seed=5, express_fraction=0.2)
        assert express.num_edges > base.num_edges

    def test_deterministic_for_seed(self):
        first = grid_city(5, 5, perturbation=0.3, seed=11)
        second = grid_city(5, 5, perturbation=0.3, seed=11)
        assert sorted(first.edges()) == sorted(second.edges())

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            grid_city(1, 5)
        with pytest.raises(WorkloadError):
            grid_city(5, 5, perturbation=1.5)
        with pytest.raises(WorkloadError):
            grid_city(5, 5, speed=0.0)


class TestRingRadialCity:
    def test_node_count(self):
        city = ring_radial_city(3, 8)
        assert city.num_nodes == 1 + 3 * 8

    @pytest.mark.parametrize("rings, spokes", [(1, 3), (3, 8)])
    def test_rings_are_400_m_apart(self, rings, spokes):
        city = ring_radial_city(rings, spokes)
        assert city.position(0) == (0.0, 0.0)
        for ring in range(1, rings + 1):
            for spoke in range(spokes):
                x, y = city.position(1 + (ring - 1) * spokes + spoke)
                assert math.hypot(x, y) == pytest.approx(400.0 * ring, rel=1e-12)

    def test_strongly_connected(self):
        city = ring_radial_city(2, 6, seed=2)
        assert nx.is_strongly_connected(city.to_networkx())

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ring_radial_city(0, 6)
        with pytest.raises(WorkloadError):
            ring_radial_city(3, 2)


class TestMakeCity:
    def test_presets_exist(self):
        assert {"chd", "nyc", "cainiao", "tiny"} <= set(CITY_PRESETS)

    def test_nyc_smaller_than_chd(self):
        nyc = make_city("nyc", scale=0.5)
        chd = make_city("chd", scale=0.5)
        assert nyc.num_nodes < chd.num_nodes

    def test_scale_changes_size(self):
        small = make_city("tiny", scale=1.0)
        large = make_city("tiny", scale=2.0)
        assert large.num_nodes > small.num_nodes

    def test_unknown_preset(self):
        with pytest.raises(WorkloadError):
            make_city("atlantis")

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            make_city("nyc", scale=0.0)

    def test_accepts_preset_object(self):
        preset = CITY_PRESETS["tiny"]
        city = make_city(preset)
        assert city.num_nodes == preset.rows * preset.cols
