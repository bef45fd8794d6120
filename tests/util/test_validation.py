"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    normalized_channel_weights,
    require_in_closed_unit_interval,
    require_non_negative,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability_vector,
    require_square_matrix,
    require_stochastic_matrix,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            require_positive(bad, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_non_negative(bad, "x")


class TestRequirePositiveInt:
    def test_accepts_int(self):
        assert require_positive_int(3, "n") == 3

    def test_accepts_numpy_int(self):
        assert require_positive_int(np.int64(2), "n") == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive_int(0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive_int(True, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            require_positive_int(2.0, "n")


class TestRequireNonNegativeInt:
    def test_accepts_zero_as_int(self):
        assert require_non_negative_int(0, "n") == 0

    def test_numpy_int_becomes_int(self):
        assert type(require_non_negative_int(np.uint32(5), "n")) is int

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            require_non_negative_int(-1, "n")

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_rejects_non_int(self, bad):
        with pytest.raises(TypeError, match="n must be an int"):
            require_non_negative_int(bad, "n")


class TestUnitInterval:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert require_in_closed_unit_interval(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_in_closed_unit_interval(bad, "p")


class TestProbabilityVector:
    def test_accepts_and_normalizes(self):
        vec = require_probability_vector([0.25, 0.75], "p")
        assert vec.sum() == pytest.approx(1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            require_probability_vector([0.5, 0.6], "p")

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            require_probability_vector([1.2, -0.2], "p")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            require_probability_vector([], "p")

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            require_probability_vector([[0.5, 0.5]], "p")

    def test_tiny_negative_rounding_is_clipped(self):
        vec = require_probability_vector([1.0 + 1e-12, -1e-12], "p")
        assert np.all(vec >= 0)


class TestSquareMatrix:
    def test_accepts_square(self):
        mat = require_square_matrix([[1.0, 0.0], [0.0, 1.0]], "m")
        assert mat.shape == (2, 2)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            require_square_matrix([[1.0, 0.0]], "m")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_square_matrix([[float("nan"), 0.0], [0.0, 1.0]], "m")


class TestStochasticMatrix:
    def test_accepts_stochastic(self):
        mat = require_stochastic_matrix([[0.9, 0.1], [0.5, 0.5]], "m")
        assert np.allclose(mat.sum(axis=1), 1.0)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            require_stochastic_matrix([[0.9, 0.0], [0.5, 0.5]], "m")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_stochastic_matrix([[1.1, -0.1], [0.5, 0.5]], "m")


class TestNormalizedChannelWeights:
    def test_none_means_uniform(self):
        weights = normalized_channel_weights(4, None)
        assert np.array_equal(weights, np.full(4, 0.25))

    def test_normalizes_and_keeps_zero_weights(self):
        weights = normalized_channel_weights(3, [2.0, 0.0, 6.0])
        assert np.allclose(weights, [0.25, 0.0, 0.75])

    @pytest.mark.parametrize(
        "bad", [[1.0, 2.0, 3.0], [1.0], [1.0, -1.0], [0.0, 0.0]]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="channel_popularity"):
            normalized_channel_weights(2, bad)
