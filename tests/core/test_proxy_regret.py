"""Tests for the proxy-regret estimators (Eqs. 3-2 .. 3-6).

The central assertion: the recursive R2HS accumulator reproduces the
literal RTHS weighted sums exactly, for constant *and* time-varying step
schedules — this is the paper's Algorithm 1 == Algorithm 2 claim (with the
(1-eps) forgetting factor restored in Eq. 3-5; see the
``repro.core.proxy_regret`` module docstring).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proxy_regret import ExactProxyRegret, RecursiveProxyRegret
from repro.core.schedules import constant_step, harmonic_step


def random_history(m, length, seed):
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(length):
        probs = rng.dirichlet(np.ones(m) * 2.0) * 0.9 + 0.1 / m
        probs = probs / probs.sum()
        action = int(rng.choice(m, p=probs))
        utility = float(rng.uniform(0.0, 1.0))
        history.append((action, utility, probs))
    return history


def feed(estimator, history):
    for action, utility, probs in history:
        estimator.update(action, utility, probs)
    return estimator


class TestEquivalence:
    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.5, 1.0])
    def test_exact_equals_recursive_constant_step(self, eps):
        history = random_history(m=4, length=80, seed=1)
        exact = feed(ExactProxyRegret(4, schedule=constant_step(eps)), history)
        recursive = feed(
            RecursiveProxyRegret(4, schedule=constant_step(eps)), history
        )
        assert np.allclose(
            exact.regret_matrix(), recursive.regret_matrix(), atol=1e-12
        )

    def test_exact_equals_recursive_harmonic(self):
        history = random_history(m=3, length=60, seed=2)
        exact = feed(ExactProxyRegret(3, schedule=harmonic_step()), history)
        recursive = feed(RecursiveProxyRegret(3, schedule=harmonic_step()), history)
        assert np.allclose(
            exact.regret_matrix(), recursive.regret_matrix(), atol=1e-12
        )

    def test_exact_equals_recursive_polynomial(self):
        """The estimators take any schedule: here a decaying
        ``eps_n = n^-0.75``, slower than the harmonic step."""
        history = random_history(m=5, length=40, seed=3)

        def schedule(n):
            return min(1.0, 1.0 / float(n) ** 0.75)

        exact = feed(ExactProxyRegret(5, schedule=schedule), history)
        recursive = feed(RecursiveProxyRegret(5, schedule=schedule), history)
        assert np.allclose(
            exact.regret_matrix(), recursive.regret_matrix(), atol=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=6),
        length=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10**6),
        eps=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_equivalence_property(self, m, length, seed, eps):
        history = random_history(m, length, seed)
        exact = feed(ExactProxyRegret(m, schedule=constant_step(eps)), history)
        recursive = feed(RecursiveProxyRegret(m, schedule=constant_step(eps)), history)
        assert np.allclose(
            exact.regret_matrix(), recursive.regret_matrix(), atol=1e-9
        )


class TestExactProxyRegret:
    def test_harmonic_weights_are_uniform(self):
        """With eps_n = 1/n the stage weights reduce to 1/n each — the
        Hart & Mas-Colell uniform average."""
        estimator = ExactProxyRegret(2, schedule=harmonic_step())
        history = random_history(2, 10, seed=4)
        feed(estimator, history)
        weights = estimator._stage_weights()
        assert np.allclose(weights, 0.1)

    def test_constant_weights_are_exponential(self):
        estimator = ExactProxyRegret(2, schedule=constant_step(0.2))
        feed(estimator, random_history(2, 5, seed=5))
        weights = estimator._stage_weights()
        expected = 0.2 * 0.8 ** np.arange(4, -1, -1)
        assert np.allclose(weights, expected)

    def test_empty_regret_is_zero(self):
        estimator = ExactProxyRegret(3)
        assert np.all(estimator.regret_matrix() == 0)
        assert estimator.max_regret() == 0.0

    def test_played_action_with_high_utility_has_no_regret(self):
        estimator = ExactProxyRegret(2, schedule=constant_step(0.5))
        probs = np.array([0.5, 0.5])
        for _ in range(10):
            estimator.update(0, 1.0, probs)
        # Action 1 never observed -> Uhat(1) = 0 < Ubar(0) -> Q(0,1) = 0.
        assert estimator.regret_matrix()[0, 1] == 0.0

    def test_regret_detects_better_alternative(self):
        estimator = ExactProxyRegret(2, schedule=constant_step(0.3))
        probs = np.array([0.5, 0.5])
        for _ in range(5):
            estimator.update(0, 0.1, probs)
            estimator.update(1, 0.9, probs)
        assert estimator.regret_matrix()[0, 1] > 0.0
        assert estimator.regret_matrix()[1, 0] == 0.0

    def test_update_validates_action(self):
        estimator = ExactProxyRegret(2)
        with pytest.raises(ValueError):
            estimator.update(2, 1.0, np.array([0.5, 0.5]))

    def test_update_validates_probs_length(self):
        estimator = ExactProxyRegret(3)
        with pytest.raises(ValueError):
            estimator.update(0, 1.0, np.array([0.5, 0.5]))

    def test_regret_row_matches_matrix(self):
        estimator = feed(ExactProxyRegret(3), random_history(3, 20, seed=6))
        assert np.allclose(estimator.regret_row(1), estimator.regret_matrix()[1])


class TestRecursiveProxyRegret:
    def test_diagonal_is_zero(self):
        estimator = feed(RecursiveProxyRegret(4), random_history(4, 30, seed=7))
        assert np.all(np.diag(estimator.regret_matrix()) == 0)

    def test_rejects_zero_probability_play(self):
        estimator = RecursiveProxyRegret(2)
        with pytest.raises(ValueError, match="zero probability"):
            estimator.update(0, 1.0, np.array([0.0, 1.0]))

    def test_stage_counter(self):
        estimator = feed(RecursiveProxyRegret(2), random_history(2, 13, seed=8))
        assert estimator.num_stages == 13

    def test_accumulator_is_copy(self):
        estimator = feed(RecursiveProxyRegret(2), random_history(2, 5, seed=9))
        acc = estimator.accumulator
        acc[:] = 0
        assert not np.all(estimator.accumulator == 0)

    def test_regret_row_matches_matrix(self):
        estimator = feed(RecursiveProxyRegret(4), random_history(4, 25, seed=10))
        for j in range(4):
            assert np.allclose(estimator.regret_row(j), estimator.regret_matrix()[j])

    def test_exponential_forgetting(self):
        """Old high-regret evidence fades under constant-step tracking."""
        estimator = RecursiveProxyRegret(2, schedule=constant_step(0.3))
        probs = np.array([0.5, 0.5])
        # Phase 1: action 1 is much better.
        for _ in range(20):
            estimator.update(0, 0.0, probs)
            estimator.update(1, 1.0, probs)
        q_before = estimator.regret_matrix()[0, 1]
        # Phase 2: action 1 collapses.
        for _ in range(20):
            estimator.update(0, 0.5, probs)
            estimator.update(1, 0.0, probs)
        q_after = estimator.regret_matrix()[0, 1]
        assert q_before > 0.0
        assert q_after < q_before * 0.1
