"""Tests for the vectorized learner banks."""

import numpy as np
import pytest

from repro.core.r2hs import R2HSLearner
from repro.runtime.learner_bank import (
    RegretBank,
    StickyBank,
    UniformBank,
    bank_factory,
)


class TestRowLifecycle:
    def test_acquire_hands_out_distinct_rows(self):
        bank = UniformBank(4, rng=0, initial_rows=2)
        rows = [bank.acquire() for _ in range(5)]  # forces growth
        assert len(set(rows)) == 5

    def test_release_recycles(self):
        bank = UniformBank(4, rng=0, initial_rows=2)
        row = bank.acquire()
        bank.release(row)
        assert bank.acquire() == row

    def test_acquire_many(self):
        bank = RegretBank(3, rng=0, initial_rows=2, u_max=900.0)
        rows = bank.acquire_many(6)
        assert len(set(rows.tolist())) == 6

    def test_regret_bank_rows_reset_on_reuse(self):
        bank = RegretBank(3, rng=0, u_max=900.0)
        row = bank.acquire()
        rows = np.array([row])
        for _ in range(20):
            actions = bank.act(rows)
            bank.observe(rows, actions, np.array([800.0]))
        trained = bank.population.strategies()[row]
        assert not np.allclose(trained, 1 / 3)
        bank.release(row)
        row2 = bank.acquire()
        assert row2 == row
        assert np.allclose(bank.population.strategies()[row2], 1 / 3)


class TestRegretBankDynamics:
    def test_matches_scalar_r2hs_learner(self):
        """Feed a bank row and a scalar learner identical (action, utility)
        sequences: strategies and regrets must coincide."""
        eps, delta, u_max = 0.1, 0.1, 900.0
        bank = RegretBank(3, rng=0, epsilon=eps, delta=delta, u_max=u_max)
        row = bank.acquire()
        rows = np.array([row])
        learner = R2HSLearner(3, rng=0, epsilon=eps, delta=delta, u_max=u_max)
        env = np.random.default_rng(9)
        for _ in range(80):
            action = int(env.integers(3))
            utility = float(env.uniform(100, 900))
            assert np.allclose(
                learner.strategy(), bank.population.strategies()[row], atol=1e-12
            )
            learner.observe(action, utility)
            bank.observe(rows, np.array([action]), np.array([utility]))
        assert np.allclose(
            learner.strategy(), bank.population.strategies()[row], atol=1e-10
        )
        assert np.allclose(
            learner.regret_matrix(),
            bank.population.regret_matrices()[row],
            atol=1e-10,
        )


class TestBaselineBanks:
    def test_uniform_actions_cover_range(self):
        bank = UniformBank(4, rng=2)
        rows = bank.acquire_many(2000)
        actions = bank.act(rows)
        assert set(np.unique(actions).tolist()) == {0, 1, 2, 3}
        counts = np.bincount(actions, minlength=4)
        assert np.allclose(counts / 2000, 0.25, atol=0.05)

    def test_uniform_observe_validates(self):
        bank = UniformBank(3, rng=0)
        rows = bank.acquire_many(2)
        with pytest.raises(ValueError):
            bank.observe(rows, np.array([0, 7]), np.zeros(2))

    def test_sticky_rows_mostly_repeat(self):
        bank = StickyBank(5, rng=3, switch_probability=0.0)
        rows = bank.acquire_many(50)
        first = bank.act(rows)
        for _ in range(5):
            assert np.array_equal(bank.act(rows), first)

    def test_sticky_switches_at_rate_one(self):
        bank = StickyBank(5, rng=4, switch_probability=1.0)
        rows = bank.acquire_many(2000)
        a = bank.act(rows)
        b = bank.act(rows)
        # With re-pick probability 1 the repeats are only chance collisions.
        assert np.mean(a == b) < 0.5


class TestBankFactory:
    @pytest.mark.parametrize("kind", ["rths", "r2hs", "uniform", "sticky"])
    def test_builds_each_kind(self, kind):
        factory = bank_factory(kind)
        bank = factory([4, 3], [np.random.default_rng(0), np.random.default_rng(1)])
        assert [bank.num_actions_of(c) for c in range(2)] == [4, 3]
        rows = np.concatenate([bank.acquire_many(0, 3), bank.acquire_many(1, 2)])
        offsets = np.array([0, 3, 5])
        actions = bank.act_all(offsets, rows)
        assert (actions[:3] < 4).all() and (actions[3:] < 3).all()
        bank.observe_all(offsets, rows, actions, np.full(5, 400.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bank_factory("dqn")
