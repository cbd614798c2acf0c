"""Tests for configuration validation and derived properties."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import SimulationConfig, WorkloadConfig
from repro.exceptions import ConfigurationError


class TestSimulationConfig:
    def test_defaults_match_paper_table3(self):
        config = SimulationConfig()
        assert config.gamma == 1.5
        assert config.penalty_coefficient == 10.0
        assert config.batch_period == 3.0
        assert config.capacity == 3
        assert config.alpha == 1.0

    def test_alpha_is_a_constant_not_a_setting(self):
        """The paper fixes alpha to 1: it is readable, never settable."""
        assert "alpha" not in {field.name for field in dataclasses.fields(SimulationConfig)}
        assert SimulationConfig(capacity=2).alpha == SimulationConfig.alpha == 1.0
        with pytest.raises(TypeError):
            SimulationConfig(alpha=2.0)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(gamma=1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(gamma=0.9)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(penalty_coefficient=-1.0)

    def test_non_positive_batch_period_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(batch_period=0.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(capacity=0)

    def test_angle_threshold_bounds(self):
        SimulationConfig(angle_threshold=math.pi)
        SimulationConfig(angle_threshold=None)
        with pytest.raises(ConfigurationError):
            SimulationConfig(angle_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(angle_threshold=4.0)

    def test_with_overrides_returns_new_object(self):
        base = SimulationConfig()
        other = base.with_overrides(gamma=2.0)
        assert other.gamma == 2.0
        assert base.gamma == 1.5
        assert other is not base

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().with_overrides(gamma=0.5)

    def test_nan_and_infinity_rejected(self):
        """NaN passes every comparison-based range check silently; the
        explicit finiteness guard must catch it at construction."""
        for field in ("gamma", "penalty_coefficient", "batch_period", "max_wait"):
            with pytest.raises(ConfigurationError):
                SimulationConfig(**{field: math.nan})
        with pytest.raises(ConfigurationError):
            SimulationConfig(gamma=math.inf)
        with pytest.raises(ConfigurationError):
            SimulationConfig(angle_threshold=math.nan)

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(routing_backend="warp_drive")


class TestWorkloadConfig:
    def test_effective_horizon_from_arrival_rate(self):
        config = WorkloadConfig(num_requests=300, arrival_rate=1.5, horizon=999.0)
        assert config.effective_horizon == pytest.approx(200.0)

    def test_effective_horizon_falls_back_to_horizon(self):
        config = WorkloadConfig(num_requests=300, arrival_rate=0.0, horizon=999.0)
        assert config.effective_horizon == 999.0

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_requests=-1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(horizon=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(hotspot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mean_riders=0.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(capacity_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(arrival_rate=-1.0)

    def test_zero_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_vehicles=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_vehicles=-3)

    def test_nan_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(arrival_rate=math.nan)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(horizon=math.inf)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_hotspots=-1)

    def test_with_overrides(self):
        base = WorkloadConfig(num_requests=100)
        other = base.with_overrides(num_requests=50, name="X")
        assert other.num_requests == 50
        assert other.name == "X"
        assert base.num_requests == 100


class TestScenarioConfig:
    def test_defaults_valid(self):
        from repro.config import ScenarioConfig

        config = ScenarioConfig()
        assert config.refresh_policy == "coalesce"

    def test_invalid_fields_rejected(self):
        from repro.config import ScenarioConfig

        with pytest.raises(ConfigurationError):
            ScenarioConfig(refresh_policy="maybe")

    def test_config_error_alias(self):
        from repro.exceptions import ConfigError

        assert ConfigError is ConfigurationError
