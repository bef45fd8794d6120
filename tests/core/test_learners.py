"""Tests for the RTHS / R2HS learners and the regret-matching ancestor."""

import numpy as np
import pytest

from repro.core.proxy_regret import ExactProxyRegret
from repro.core.r2hs import R2HSLearner, regret_matching_learner
from repro.core.regret_learner import RegretLearner
from repro.core.schedules import constant_step, harmonic_step
from repro.game.repeated_game import RepeatedGameDriver, StaticCapacities


def exact_learner(num_actions, rng, schedule, u_max=1.0):
    """Algorithm 1 with its literal history sums (the reference oracle)."""
    return RegretLearner(
        num_actions, ExactProxyRegret(num_actions, schedule=schedule),
        rng=rng, u_max=u_max,
    )


class TestConstruction:
    def test_defaults(self):
        learner = R2HSLearner(4, rng=0)
        assert learner.num_actions == 4
        assert learner.epsilon == 0.05
        assert learner.delta == 0.1
        assert learner.mu == pytest.approx(6.0)

    def test_initial_strategy_uniform(self):
        learner = R2HSLearner(5, rng=0)
        assert np.allclose(learner.strategy(), 0.2)

    def test_rejects_single_action(self):
        with pytest.raises(ValueError):
            R2HSLearner(1, rng=0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            R2HSLearner(3, rng=0, delta=0.0)
        with pytest.raises(ValueError):
            R2HSLearner(3, rng=0, delta=1.0)

    def test_rejects_bad_u_max(self):
        with pytest.raises(ValueError):
            R2HSLearner(3, rng=0, u_max=0.0)


class TestRTHSEqualsR2HS:
    """Algorithm 1 and Algorithm 2 are the same algorithm."""

    def test_identical_decisions_and_strategies(self):
        a = exact_learner(4, rng=42, schedule=constant_step(0.1), u_max=900.0)
        b = R2HSLearner(4, rng=42, epsilon=0.1, u_max=900.0)
        env = np.random.default_rng(7)
        for stage in range(80):
            ja, jb = a.act(), b.act()
            assert ja == jb, f"decisions diverged at stage {stage}"
            utility = float(env.uniform(50, 900))
            a.observe(ja, utility)
            b.observe(jb, utility)
            assert np.allclose(a.strategy(), b.strategy(), atol=1e-10)

    def test_identical_regret_matrices(self):
        a = exact_learner(3, rng=1, schedule=constant_step(0.05))
        b = R2HSLearner(3, rng=1, epsilon=0.05, u_max=1.0)
        env = np.random.default_rng(2)
        for _ in range(50):
            ja, jb = a.act(), b.act()
            utility = float(env.uniform(0, 1))
            a.observe(ja, utility)
            b.observe(jb, utility)
        assert np.allclose(a.regret_matrix(), b.regret_matrix(), atol=1e-10)


class TestLearningBehaviour:
    def test_single_agent_finds_better_arm(self):
        """Two static 'helpers' with very different rates: the learner's
        strategy should concentrate on the better one."""
        learner = R2HSLearner(2, rng=3, epsilon=0.1, delta=0.05, u_max=1.0)
        rates = [0.2, 0.9]
        for _ in range(400):
            action = learner.act()
            learner.observe(action, rates[action])
        assert learner.strategy()[1] > 0.8

    def test_strategy_respects_exploration_floor(self):
        learner = R2HSLearner(4, rng=0, delta=0.2)
        for _ in range(100):
            action = learner.act()
            learner.observe(action, 0.5)
        assert np.all(learner.strategy() >= 0.2 / 4 - 1e-12)

    def test_played_regret_reported(self):
        learner = R2HSLearner(2, rng=0, u_max=1.0)
        assert learner.played_regret() == 0.0
        rates = [0.1, 0.9]
        for _ in range(50):
            action = learner.act()
            learner.observe(action, rates[action])
        assert learner.played_regret() >= 0.0

    def test_observe_rejects_nan(self):
        learner = R2HSLearner(2, rng=0)
        with pytest.raises(ValueError):
            learner.observe(0, float("nan"))

    def test_observe_rejects_bad_action(self):
        learner = R2HSLearner(2, rng=0)
        with pytest.raises(ValueError):
            learner.observe(5, 1.0)

    def test_stage_counter_advances(self):
        learner = R2HSLearner(2, rng=0)
        for n in range(5):
            learner.observe(learner.act(), 0.5)
        assert learner.stage == 5

    def test_u_max_normalization_scale_free(self):
        """Scaling utilities and u_max together leaves decisions unchanged."""
        a = R2HSLearner(3, rng=5, u_max=1.0)
        b = R2HSLearner(3, rng=5, u_max=1000.0)
        env = np.random.default_rng(6)
        for _ in range(60):
            ja, jb = a.act(), b.act()
            assert ja == jb
            u = float(env.uniform(0, 1))
            a.observe(ja, u)
            b.observe(jb, u * 1000.0)
            assert np.allclose(a.strategy(), b.strategy(), atol=1e-12)


class TestRegretMatchingLearner:
    def test_factory_builds_learner(self):
        learner = regret_matching_learner(3, rng=0)
        assert learner.num_actions == 3

    def test_recursive_and_exact_variants_agree(self):
        a = regret_matching_learner(3, rng=11)
        b = exact_learner(3, rng=11, schedule=harmonic_step())
        env = np.random.default_rng(12)
        for _ in range(40):
            ja, jb = a.act(), b.act()
            assert ja == jb
            u = float(env.uniform(0, 1))
            a.observe(ja, u)
            b.observe(jb, u)
            assert np.allclose(a.strategy(), b.strategy(), atol=1e-10)

    def test_matching_finds_better_arm(self):
        learner = regret_matching_learner(2, rng=1, delta=0.05)
        rates = [0.2, 0.9]
        for _ in range(500):
            action = learner.act()
            learner.observe(action, rates[action])
        assert learner.strategy()[1] > 0.8


class TestPopulationPlay:
    def test_two_r2hs_peers_approach_ce_of_anticoordination_game(self):
        """Two peers, two equal helpers: empirical play approaches the CE
        set — splitting (anti-coordination) strictly more often than the
        50% of independent mixing, with small empirical CE regret."""
        from repro.core.equilibrium import empirical_ce_regret

        learners = [
            R2HSLearner(2, rng=i, epsilon=0.05, delta=0.05, u_max=800.0)
            for i in range(2)
        ]
        driver = RepeatedGameDriver(learners, StaticCapacities([800.0, 800.0]))
        trajectory = driver.run(2000)
        tail = trajectory.tail(0.25)
        split = np.mean(tail.actions[:, 0] != tail.actions[:, 1])
        assert split > 0.55
        assert empirical_ce_regret(trajectory, u_max=800.0) < 0.12

    def test_rths_peers_avoid_the_weak_helper(self):
        learners = [
            R2HSLearner(2, rng=10 + i, epsilon=0.1, delta=0.05, u_max=900.0)
            for i in range(4)
        ]
        driver = RepeatedGameDriver(learners, StaticCapacities([900.0, 100.0]))
        trajectory = driver.run(800)
        tail = trajectory.tail(0.25)
        weak_load = tail.loads[:, 1].mean()
        assert weak_load < 1.5  # NE load on the weak helper is <= 1
