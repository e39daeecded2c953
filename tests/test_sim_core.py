"""Tests for the simulation latency models."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sim.latency import (
    ConstantLatency,
    UniformLatency,
    ZeroLatency,
)


class TestLatencyModels:
    def test_zero_latency(self, rng):
        assert ZeroLatency().sample(1, 2, rng) == 0.0

    def test_constant_latency(self, rng):
        model = ConstantLatency(2.5)
        assert model.sample(1, 2, rng) == 2.5
        assert model.sample(9, 7, rng) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_uniform_latency_in_range(self, rng):
        model = UniformLatency(1.0, 3.0)
        samples = [model.sample(0, 1, rng) for _ in range(200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert max(samples) - min(samples) > 0.5

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformLatency(-1.0, 1.0)
