"""Tests for repro.game.repeated_game."""

import numpy as np
import pytest

from repro.game.baselines import UniformRandomLearner
from repro.game.repeated_game import (
    RepeatedGameDriver,
    StaticCapacities,
)


def make_driver(num_peers=4, caps=(800.0, 400.0), seed=0):
    learners = [
        UniformRandomLearner(len(caps), rng=seed + i) for i in range(num_peers)
    ]
    return RepeatedGameDriver(learners, StaticCapacities(caps))


class TestStaticCapacities:
    def test_constant(self):
        process = StaticCapacities([700.0, 900.0])
        before = process.capacities()
        process.advance()
        assert np.array_equal(process.capacities(), before)

    def test_validates(self):
        with pytest.raises(ValueError):
            StaticCapacities([])
        with pytest.raises(ValueError):
            StaticCapacities([-1.0])

    def test_returns_copy(self):
        process = StaticCapacities([700.0])
        process.capacities()[0] = 0.0
        assert process.capacities()[0] == 700.0


class TestRepeatedGameDriver:
    def test_run_shapes(self):
        trajectory = make_driver().run(25)
        assert trajectory.actions.shape == (25, 4)
        assert trajectory.loads.shape == (25, 2)
        assert trajectory.utilities.shape == (25, 4)
        assert trajectory.capacities.shape == (25, 2)

    def test_loads_consistent_with_actions(self):
        trajectory = make_driver().run(10)
        for t in range(10):
            counts = np.bincount(trajectory.actions[t], minlength=2)
            assert np.array_equal(counts, trajectory.loads[t])

    def test_utilities_are_even_splits(self):
        trajectory = make_driver().run(10)
        for t in range(10):
            for i in range(4):
                j = trajectory.actions[t, i]
                expected = trajectory.capacities[t, j] / trajectory.loads[t, j]
                assert trajectory.utilities[t, i] == pytest.approx(expected)

    def test_callback_sees_every_stage(self):
        stages = []
        make_driver().run(7, callback=lambda rec: stages.append(rec.stage))
        assert stages == list(range(7))

    def test_learner_action_count_validated(self):
        learners = [UniformRandomLearner(3, rng=0)]
        with pytest.raises(ValueError):
            RepeatedGameDriver(learners, StaticCapacities([800.0, 800.0]))

    def test_capacity_shape_checked_every_stage(self):
        class ShrinkingProcess(StaticCapacities):
            def capacities(self):
                return super().capacities()[:1]

        driver = RepeatedGameDriver(
            [UniformRandomLearner(2, rng=0)], ShrinkingProcess([800.0, 400.0])
        )
        with pytest.raises(RuntimeError, match="shape"):
            driver.run_stage()

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError, match="num_stages"):
            make_driver().run(0)

    def test_empty_learners_rejected(self):
        with pytest.raises(ValueError):
            RepeatedGameDriver([], StaticCapacities([800.0]))

    def test_stage_record_welfare(self):
        driver = make_driver(num_peers=2)
        record = driver.run_stage()
        assert record.welfare == pytest.approx(record.utilities.sum())


class TestTrajectory:
    def test_welfare_series(self):
        trajectory = make_driver().run(12)
        assert trajectory.welfare.shape == (12,)
        assert np.all(trajectory.welfare > 0)

    def test_stage_accessor(self):
        trajectory = make_driver().run(5)
        record = trajectory.stage(3)
        assert record.stage == 3
        assert np.array_equal(record.actions, trajectory.actions[3])

    def test_tail(self):
        trajectory = make_driver().run(10)
        tail = trajectory.tail(0.3)
        assert tail.num_stages == 3
        assert np.array_equal(tail.actions, trajectory.actions[7:])

    def test_tail_validates_fraction(self):
        trajectory = make_driver().run(4)
        with pytest.raises(ValueError):
            trajectory.tail(0.0)

    def test_empirical_joint_counts_total(self):
        trajectory = make_driver().run(20)
        counts = trajectory.empirical_joint_counts()
        assert sum(counts.values()) == 20

    def test_properties(self):
        trajectory = make_driver(num_peers=3).run(6)
        assert trajectory.num_stages == 6
        assert trajectory.num_peers == 3
        assert trajectory.num_helpers == 2
