"""Tests for the figure sweeps, reporting and figure definitions."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import figures
from repro.experiments.figures import InstanceScale, SweepResult, sweep
from repro.experiments.reporting import format_rows, rows_to_csv

GOLDEN = Path(__file__).parent / "golden" / "sweep_rows_nyc.json"
TINY = InstanceScale(request_fraction=0.0006, vehicle_fraction=0.02, city_scale=0.3)
ALGORITHMS = ("pruneGDP", "SARD")
#: The sweeps the golden file pins, one per kind of swept knob (simulation
#: config, fleet size in paper units, workload shape).
SWEEPS = {
    "gamma": (1.3, 1.8),
    "num_vehicles": (1_000, 5_000),
    "capacity_sigma": (0.0, 2.0),
}
#: ResultRow fields that do not depend on the host's clock or allocator.
EXACT_FIELDS = (
    "dataset", "algorithm", "parameter", "value", "unified_cost", "service_rate",
    "shortest_path_queries", "assigned_requests", "total_requests",
)


@pytest.fixture(scope="module")
def sweeps() -> SimpleNamespace:
    """Every sweep of ``SWEEPS`` (``.results``, by parameter) and how many
    workloads running them built (``.workloads_built``)."""
    built = 0
    make_workload = figures.make_workload

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return make_workload(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "make_workload", counting)
        results = {
            parameter: sweep("nyc", parameter, values, algorithms=ALGORITHMS, scale=TINY)
            for parameter, values in SWEEPS.items()
        }
    return SimpleNamespace(results=results, workloads_built=built)


@pytest.fixture(scope="module")
def gamma_sweep(sweeps) -> SweepResult:
    return sweeps.results["gamma"]


class TestRunner:
    def test_sweep_produces_row_per_algorithm_and_value(self, gamma_sweep: SweepResult):
        assert len(gamma_sweep.rows) == 4
        assert [(row.algorithm, row.value) for row in gamma_sweep.rows] == [
            ("pruneGDP", 1.3), ("SARD", 1.3), ("pruneGDP", 1.8), ("SARD", 1.8),
        ]

    def test_rows_reproduce_the_golden_file(self, sweeps):
        """The non-timing fields of every row, exactly as the pre-``RunSpec``
        runner produced them (captured on the commit before the port).  A
        change that legitimately moves them (e.g. a kernel that asks fewer
        shortest-path queries) regenerates the file with ``REGEN_GOLDEN=1``
        and reviews the diff."""
        produced = {
            parameter: [
                {name: getattr(row, name) for name in EXACT_FIELDS}
                for row in result.rows
            ]
            for parameter, result in sweeps.results.items()
        }
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN.write_text(json.dumps(produced, indent=2, sort_keys=True))
        assert produced == json.loads(GOLDEN.read_text())

    def test_workload_is_built_once_per_value(self, sweeps):
        """Not once per (value, algorithm) cell: set-up cost is not multiplied
        by the line-up."""
        assert sweeps.workloads_built == sum(len(values) for values in SWEEPS.values())

    def test_rows_have_sane_metrics(self, gamma_sweep: SweepResult):
        for row in gamma_sweep.rows:
            assert 0.0 <= row.service_rate <= 1.0
            assert row.unified_cost > 0
            assert row.running_time >= 0
            assert row.total_requests > 0
            assert row.dataset == "NYC"

    def test_series_grouping(self, gamma_sweep: SweepResult):
        series = gamma_sweep.series("service_rate")
        assert set(series) == {"pruneGDP", "SARD"}
        assert [value for value, _ in series["SARD"]] == [1.3, 1.8]

    def test_metric_name_validation(self, gamma_sweep: SweepResult):
        row = gamma_sweep.rows[0]
        assert row.metric("memory") == float(row.peak_memory_bytes)
        with pytest.raises(ConfigurationError):
            row.metric("latency")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep("nyc", "weather", (1,), scale=TINY)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            InstanceScale(request_fraction=0.0)

    def test_vehicle_sweep_scales_fleet(self, sweeps):
        small, large = (
            row for row in sweeps.results["num_vehicles"].rows if row.algorithm == "pruneGDP"
        )
        assert (small.value, large.value) == (1_000.0, 5_000.0)
        # More vehicles never hurts the service rate on the same trace.
        assert large.service_rate >= small.service_rate - 1e-9


class TestReporting:
    def test_format_rows_contains_all_cells(self, gamma_sweep: SweepResult):
        text = format_rows(gamma_sweep.rows, title="Gamma sweep")
        assert "Gamma sweep" in text
        assert "SARD" in text and "pruneGDP" in text
        assert "service_rate" in text

    def test_csv_round_trip(self, tmp_path, gamma_sweep: SweepResult):
        path = tmp_path / "rows.csv"
        text = rows_to_csv(gamma_sweep.rows, path)
        assert path.exists()
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(gamma_sweep.rows)
        assert lines[0].startswith("dataset,algorithm")


class TestFigureDefinitions:
    def test_paper_grids_match_tables(self):
        assert figures.PAPER_GAMMAS == (1.2, 1.3, 1.5, 1.8, 2.0)
        assert figures.PAPER_CAPACITIES == (2, 3, 4, 5, 6)
        assert figures.PAPER_NUM_VEHICLES == (1_000, 2_000, 3_000, 4_000, 5_000)
        assert figures.PAPER_PENALTIES == (2, 5, 10, 20, 30)
        assert figures.PAPER_BATCH_PERIODS == (1, 3, 5, 7, 9)

    def test_figure10_structure(self):
        result = figures.figure(
            "fig10", values=(1.5,), presets=("nyc",), algorithms=ALGORITHMS, scale=TINY
        )
        assert (result.figure, result.parameter) == ("Figure 10", "gamma")
        assert set(result.sweeps) == {"nyc"}
        assert len(result.all_rows()) == 2

    def test_figure_table_covers_the_paper(self):
        """Every entry names a known sweep parameter and algorithms, and an
        unknown key is rejected rather than defaulted."""
        assert len(figures.FIGURES) == 15
        for spec in figures.FIGURES.values():
            assert set(spec.algorithms) <= set(figures.DEFAULT_ALGORITHMS)
            assert spec.values
        assert figures.FIGURES["fig13"].algorithms == figures.BATCH_ALGORITHMS
        assert figures.FIGURES["fig15_gamma"].presets == ("cainiao",)
        with pytest.raises(ConfigurationError, match="unknown figure"):
            figures.figure("fig99")

    def test_paper_workload_sizes_every_instance_the_same_way(self):
        """Sweeps and the ablation share one builder: paper units are rounded
        (100K x 0.0003 is 30 requests, not a truncated 29) and Cainiao's
        default fleet is the paper's 4K, not CHD/NYC's 3K."""
        scale = dataclasses.replace(TINY, request_fraction=0.0003)
        cainiao = figures.paper_workload("cainiao", scale)
        assert cainiao.num_requests == 30
        assert cainiao.workload_config.num_vehicles == 80
        nyc = figures.paper_workload("nyc", scale, parameter="num_vehicles", value=5_000)
        assert nyc.workload_config.num_vehicles == 100

    def test_angle_pruning_ablation_rows(self):
        rows = figures.angle_pruning_ablation(presets=("nyc",), scale=TINY)
        assert [row.method for row in rows] == ["SARD", "SARD-O"]
        for row in rows:
            assert 0.0 <= row.service_rate <= 1.0
            assert row.shortest_path_queries > 0
        # Angle pruning must not issue more shortest-path queries.
        assert rows[1].shortest_path_queries <= rows[0].shortest_path_queries * 1.05

    def test_angle_expectation_study_matches_paper_ballpark(self):
        study = figures.angle_expectation_study(num_requests=200)
        assert 0.0 <= study["expected_probability"] <= 1.0
        assert study["gamma"] == 1.5

    def test_insertion_order_study_outputs_probabilities(self):
        rows = figures.insertion_order_study(
            num_requests=120, group_sizes=(3,), samples_per_size=5, seed=2
        )
        for row in rows:
            assert 0.0 <= row.release_order_optimal <= 1.0
            assert 0.0 <= row.shareability_order_optimal <= 1.0
            assert row.samples > 0
