"""Tests for repro.core.schedules."""

import pytest

from repro.core.schedules import constant_step, harmonic_step


class TestConstantStep:
    def test_value(self):
        schedule = constant_step(0.05)
        assert schedule(1) == 0.05
        assert schedule(1000) == 0.05

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            constant_step(0.0)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            constant_step(1.5)

    def test_accepts_one(self):
        assert constant_step(1.0)(5) == 1.0


class TestHarmonicStep:
    def test_values(self):
        schedule = harmonic_step()
        assert schedule(1) == 1.0
        assert schedule(4) == 0.25

    def test_rejects_stage_zero(self):
        with pytest.raises(ValueError):
            harmonic_step()(0)

