"""Tests for repro.game.baselines."""

import numpy as np
import pytest

from repro.game.baselines import (
    EpsilonGreedyLearner,
    StickyLearner,
    UniformRandomLearner,
)


class TestUniformRandomLearner:
    def test_uniform_frequencies(self):
        learner = UniformRandomLearner(4, rng=0)
        counts = np.zeros(4)
        for _ in range(4000):
            counts[learner.act()] += 1
        assert np.allclose(counts / 4000, 0.25, atol=0.03)

    def test_strategy_is_uniform(self):
        learner = UniformRandomLearner(5, rng=0)
        assert np.allclose(learner.strategy(), 0.2)

    def test_observe_advances_stage(self):
        learner = UniformRandomLearner(2, rng=0)
        learner.observe(0, 1.0)
        assert learner.stage == 1

    def test_observe_validates(self):
        with pytest.raises(ValueError):
            UniformRandomLearner(2, rng=0).observe(3, 1.0)


class TestStickyLearner:
    def test_never_switches_with_zero_probability(self):
        learner = StickyLearner(4, rng=0, switch_probability=0.0)
        first = learner.act()
        assert all(learner.act() == first for _ in range(50))

    def test_switches_eventually(self):
        learner = StickyLearner(4, rng=0, switch_probability=0.5)
        actions = {learner.act() for _ in range(100)}
        assert len(actions) > 1

    def test_strategy_mass_on_current(self):
        learner = StickyLearner(4, rng=0, switch_probability=0.2)
        strategy = learner.strategy()
        assert strategy.max() == pytest.approx(0.8 + 0.05)
        assert strategy.sum() == pytest.approx(1.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            StickyLearner(2, switch_probability=1.5)


class TestEpsilonGreedyLearner:
    def test_visits_all_actions_first(self):
        learner = EpsilonGreedyLearner(3, rng=0)
        seen = set()
        for _ in range(3):
            a = learner.act()
            seen.add(a)
            learner.observe(a, float(a))
        assert seen == {0, 1, 2}

    def test_mostly_greedy_afterwards(self):
        learner = EpsilonGreedyLearner(2, rng=0, epsilon=0.1)
        for _ in range(2):
            a = learner.act()
            learner.observe(a, 100.0 if a == 1 else 1.0)
        picks = [learner.act() for _ in range(500)]
        assert np.mean(np.array(picks) == 1) > 0.85

    def test_strategy_sums_to_one(self):
        learner = EpsilonGreedyLearner(3, rng=0)
        for _ in range(3):
            a = learner.act()
            learner.observe(a, 1.0)
        assert learner.strategy().sum() == pytest.approx(1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EpsilonGreedyLearner(2, epsilon=2.0)
        with pytest.raises(ValueError):
            EpsilonGreedyLearner(2, step_size=0.0)
