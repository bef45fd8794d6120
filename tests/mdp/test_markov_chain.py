"""Tests for repro.mdp.markov_chain."""

import numpy as np
import pytest

from repro.mdp.markov_chain import (
    MarkovChain,
    birth_death_chain,
    birth_death_transition,
    stationary_distribution,
)

PAPER_LEVELS = [700.0, 800.0, 900.0]


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        pi = stationary_distribution([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(pi, [0.5, 0.5])

    def test_asymmetric_two_state(self):
        # pi solves detailed balance: pi0 * 0.2 = pi1 * 0.1 -> pi = (1/3, 2/3)
        pi = stationary_distribution([[0.8, 0.2], [0.1, 0.9]])
        assert np.allclose(pi, [1 / 3, 2 / 3])

    def test_identity_like_lazy_chain_uniform(self):
        pi = stationary_distribution(np.full((4, 4), 0.25))
        assert np.allclose(pi, 0.25)

    def test_is_left_eigenvector(self):
        p = np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
        pi = stationary_distribution(p)
        assert np.allclose(pi @ p, pi)


class TestMarkovChain:
    def test_states_default_to_indices(self):
        chain = MarkovChain(np.full((3, 3), 1 / 3), rng=0)
        assert np.array_equal(chain.states, [0.0, 1.0, 2.0])

    def test_step_returns_valid_state(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.5, rng=0)
        for _ in range(50):
            assert 0 <= chain.step() < 3

    def test_sample_path_length(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.5, rng=0)
        assert chain.sample_path(17).shape == (17,)

    def test_sample_path_negative_rejected(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.5, rng=0)
        with pytest.raises(ValueError):
            chain.sample_path(-1)

    def test_seeded_paths_are_reproducible(self):
        a = birth_death_chain(PAPER_LEVELS, 0.7, rng=3).sample_path(40)
        b = birth_death_chain(PAPER_LEVELS, 0.7, rng=3).sample_path(40)
        assert np.array_equal(a, b)

    def test_set_state(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9, rng=0)
        chain.set_state(2)
        assert chain.state_value == 900.0

    def test_set_state_out_of_range(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9, rng=0)
        with pytest.raises(ValueError):
            chain.set_state(3)

    def test_explicit_initial_distribution(self):
        chain = MarkovChain(
            np.full((3, 3), 1 / 3), states=PAPER_LEVELS, rng=0, initial=[0, 0, 1]
        )
        assert chain.state_value == 900.0

    def test_wrong_states_length_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain(np.full((3, 3), 1 / 3), states=[1.0, 2.0])

    def test_wrong_initial_length_rejected(self):
        with pytest.raises(ValueError, match="initial must have length 3"):
            MarkovChain(np.full((3, 3), 1 / 3), initial=[0.5, 0.5])

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain([[0.9, 0.0], [0.5, 0.5]])

    def test_long_run_occupancy_matches_stationary(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.5, rng=11)
        path = chain.sample_path(20000)
        freq = np.bincount(path, minlength=3) / path.size
        assert np.allclose(freq, chain.stationary_distribution(), atol=0.03)

    def test_expected_state_value(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9, rng=0)
        # Birth-death over 3 levels with symmetric moves: pi = (.25, .5, .25).
        assert chain.expected_state_value() == pytest.approx(800.0)


class TestBirthDeathChain:
    def test_transition_structure(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9)
        p = chain.transition
        assert p[0, 0] == pytest.approx(0.9)
        assert p[0, 1] == pytest.approx(0.1)
        assert p[0, 2] == pytest.approx(0.0)
        assert p[1, 0] == pytest.approx(0.05)
        assert p[1, 2] == pytest.approx(0.05)

    def test_stationary_weights_middle_state(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9)
        assert np.allclose(chain.stationary_distribution(), [0.25, 0.5, 0.25])

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            birth_death_chain([700.0])

    def test_stay_probability_validated(self):
        with pytest.raises(ValueError):
            birth_death_chain(PAPER_LEVELS, 1.5)

    def test_transition_needs_two_states(self):
        with pytest.raises(ValueError, match="two states"):
            birth_death_transition(1, 0.9)

    def test_state_values_are_levels(self):
        chain = birth_death_chain(PAPER_LEVELS, 0.9, rng=0)
        assert chain.state_value in PAPER_LEVELS

