"""Tests for repro.workloads.popularity."""

import numpy as np
import pytest

from repro.workloads.popularity import (
    popularity_drift,
    zipf_popularity,
)


class TestZipfPopularity:
    def test_normalized(self):
        weights = zipf_popularity(10, 1.0)
        assert weights.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_popularity(8, 1.2)
        assert np.all(np.diff(weights) < 0)

    def test_zero_exponent_is_uniform(self):
        weights = zipf_popularity(5, 0.0)
        assert np.allclose(weights, 0.2)

    def test_classic_ratio(self):
        weights = zipf_popularity(4, 1.0)
        assert weights[0] / weights[1] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_popularity(0)
        with pytest.raises(ValueError):
            zipf_popularity(3, -0.5)


class TestPopularityDrift:
    def test_stays_normalized(self):
        weights = zipf_popularity(4)
        drifted = popularity_drift(weights, 0.2, rng=0)
        assert drifted.sum() == pytest.approx(1.0)

    def test_zero_like_rate_keeps_weights(self):
        weights = zipf_popularity(4)
        drifted = popularity_drift(weights, 1e-9, rng=0)
        assert np.allclose(drifted, weights, atol=1e-6)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            popularity_drift(zipf_popularity(3), 1.5, rng=0)
        with pytest.raises(ValueError):
            popularity_drift(zipf_popularity(3), 0.0, rng=0)
