"""Tests for repro.metrics.convergence."""

import numpy as np
import pytest

from repro.game.repeated_game import Trajectory
from repro.metrics.convergence import (
    convergence_stage,
    moving_average,
    time_averaged_regret_series,
)


def constant_trajectory(actions, capacities, stages):
    actions = np.tile(np.asarray(actions, dtype=int), (stages, 1))
    caps = np.tile(np.asarray(capacities, dtype=float), (stages, 1))
    h = caps.shape[1]
    loads = np.stack(
        [np.bincount(actions[t], minlength=h) for t in range(stages)]
    )
    utilities = np.stack(
        [caps[t][actions[t]] / loads[t][actions[t]] for t in range(stages)]
    )
    return Trajectory(capacities=caps, actions=actions, loads=loads, utilities=utilities)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        series = np.array([1.0, 5.0, 3.0])
        assert np.array_equal(moving_average(series, 1), series)

    def test_trailing_window(self):
        series = np.array([2.0, 4.0, 6.0, 8.0])
        out = moving_average(series, 2)
        assert out.tolist() == [2.0, 3.0, 5.0, 7.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            moving_average(np.ones(3), 0)


class TestConvergenceStage:
    def test_detects_settling(self):
        series = np.array([10.0, 5.0, 2.0, 1.0, 1.05, 0.95, 1.0])
        assert convergence_stage(series, tolerance=0.1) == 3

    def test_never_settles(self):
        series = np.array([1.0, 10.0, 1.0, 10.0])
        assert convergence_stage(series, tolerance=0.5, reference=1.0) is None

    def test_always_inside(self):
        assert convergence_stage(np.ones(5), tolerance=0.1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_stage(np.ones(3), tolerance=-1.0)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="non-empty"):
            convergence_stage(np.array([]), tolerance=0.1)


class TestTimeAveragedRegretSeries:
    def test_zero_for_anticoordinated_play(self):
        traj = constant_trajectory([0, 1], [800.0, 800.0], 30)
        series = time_averaged_regret_series(traj, sample_every=10)
        assert np.allclose(series, 0.0)

    def test_positive_for_herd(self):
        traj = constant_trajectory([0, 0], [800.0, 800.0], 30)
        series = time_averaged_regret_series(traj, sample_every=10)
        assert np.all(series > 0)
        # Herding forever: the average regret stays at 400 kbit/s.
        assert series[-1] == pytest.approx(400.0)

    def test_normalization(self):
        traj = constant_trajectory([0, 0], [800.0, 800.0], 10)
        series = time_averaged_regret_series(traj, sample_every=10, u_max=800.0)
        assert series[-1] == pytest.approx(0.5)

    def test_sampling_stride(self):
        traj = constant_trajectory([0, 1], [800.0, 800.0], 100)
        assert time_averaged_regret_series(traj, sample_every=25).shape == (4,)

    def test_validation(self):
        traj = constant_trajectory([0, 1], [800.0, 800.0], 10)
        with pytest.raises(ValueError):
            time_averaged_regret_series(traj, sample_every=0)
        with pytest.raises(ValueError):
            time_averaged_regret_series(traj, u_max=0.0)
