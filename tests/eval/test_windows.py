"""Unit tests for the windowed reductions, focused on window boundaries."""

import numpy as np
import pytest

from repro.eval.windows import (
    window_lengths,
    window_ratios,
    window_starts,
    window_sums,
)


class TestWindowTiling:
    def test_partial_last_window(self):
        assert window_starts(250, 100).tolist() == [0, 100, 200]
        assert window_lengths(250, 100).tolist() == [100, 100, 50]

    def test_window_equals_horizon_is_one_full_window(self):
        assert window_starts(80, 80).tolist() == [0]
        assert window_lengths(80, 80).tolist() == [80]

    def test_window_exceeds_horizon_is_one_partial_window(self):
        assert window_starts(30, 100).tolist() == [0]
        assert window_lengths(30, 100).tolist() == [30]

    def test_window_one_is_per_round(self):
        assert window_lengths(5, 1).tolist() == [1] * 5

    def test_exact_tiling_has_no_partial_window(self):
        assert window_lengths(100, 25).tolist() == [25, 25, 25, 25]

    @pytest.mark.parametrize("horizon,window", [(0, 5), (5, 0), (-1, 5)])
    def test_non_positive_arguments_raise(self, horizon, window):
        with pytest.raises(ValueError):
            window_starts(horizon, window)


class TestWindowSums:
    def test_sums_match_manual_blocks(self):
        series = np.arange(7, dtype=float)  # windows of 3: [0+1+2, 3+4+5, 6]
        assert window_sums(series, 3).tolist() == [3.0, 12.0, 6.0]

    def test_window_equals_horizon_sums_everything(self):
        series = np.ones(10)
        assert window_sums(series, 10).tolist() == [10.0]

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            window_sums(np.array([]), 3)

    def test_2d_series_raises(self):
        with pytest.raises(ValueError):
            window_sums(np.ones((4, 2)), 2)


class TestWindowRatios:
    def test_ratio_of_sums_not_mean_of_ratios(self):
        num = np.array([1.0, 3.0, 10.0])
        den = np.array([1.0, 1.0, 10.0])
        # One window: (1+3+10)/(1+1+10), NOT mean(1, 3, 1).
        assert window_ratios(num, den, 3).tolist() == [14.0 / 12.0]

    def test_zero_denominator_window_reports_zero(self):
        num = np.array([1.0, 1.0, 5.0, 5.0])
        den = np.array([0.0, 0.0, 2.0, 2.0])
        assert window_ratios(num, den, 2).tolist() == [0.0, 2.5]

    def test_partial_last_window_ratio(self):
        num = np.array([1.0, 1.0, 9.0])
        den = np.array([2.0, 2.0, 3.0])
        assert window_ratios(num, den, 2).tolist() == [0.5, 3.0]
