"""Tests for repro.mdp.occupation_lp."""

import itertools

import numpy as np
import pytest

from repro.mdp.markov_chain import MarkovChain, birth_death_chain
from repro.mdp.occupation_lp import (
    decomposed_optimum,
    even_split_welfare,
    solve_occupation_lp,
)

PAPER_LEVELS = [700.0, 800.0, 900.0]


def two_chains(stay=0.8):
    return [birth_death_chain(PAPER_LEVELS, stay, rng=i) for i in range(2)]


class TestEvenSplitWelfare:
    def test_all_occupied(self):
        caps = np.array([700.0, 900.0])
        assert even_split_welfare(caps, (0, 1, 1)) == 1600.0

    def test_unoccupied_helper_contributes_nothing(self):
        caps = np.array([700.0, 900.0])
        assert even_split_welfare(caps, (1, 1, 1)) == 900.0

    def test_single_peer(self):
        caps = np.array([700.0, 900.0])
        assert even_split_welfare(caps, (0,)) == 700.0


class TestSolveOccupationLP:
    def test_value_matches_decomposed(self):
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=3)
        assert lp.value == pytest.approx(decomposed_optimum(chains, 3), rel=1e-6)

    def test_n_ge_h_optimum_is_expected_total_capacity(self):
        # With N >= H the optimum occupies every helper, so the value is the
        # sum of stationary mean capacities.
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=2)
        expected = sum(c.expected_state_value() for c in chains)
        assert lp.value == pytest.approx(expected, rel=1e-6)

    def test_single_peer_prefers_best_helper(self):
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=1)
        # For each state the policy should put the peer on the max-capacity
        # helper: value = E[max(C1, C2)].
        expected = 0.0
        for y, pi_y in lp.stationary.items():
            caps = [chains[j].states[y[j]] for j in range(2)]
            expected += pi_y * max(caps)
        assert lp.value == pytest.approx(expected, rel=1e-6)

    def test_marginals_match_stationary(self):
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=2)
        for y, pi_y in lp.stationary.items():
            if pi_y <= 1e-12:
                continue
            probs = lp.policy[y]
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)

    def test_assignment_for_known_state(self):
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=2)
        for y in lp.policy:
            x = lp.assignment_for(y)
            assert len(x) == 2
            assert all(0 <= xi < 2 for xi in x)

    def test_per_state_value_consistent(self):
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=2)
        recomposed = sum(
            lp.stationary[y] * v for y, v in lp.per_state_value.items()
        )
        assert recomposed == pytest.approx(lp.value, rel=1e-6)

    def test_rejects_zero_peers(self):
        with pytest.raises(ValueError):
            solve_occupation_lp(two_chains(), num_peers=0)

    def test_rejects_no_chains(self):
        with pytest.raises(ValueError):
            solve_occupation_lp([], num_peers=1)

    def test_assignment_limit_guard(self):
        chains = two_chains()
        with pytest.raises(ValueError, match="assignment space"):
            solve_occupation_lp(chains, num_peers=20, assignment_limit=100)

    def test_state_limit_guard(self):
        with pytest.raises(ValueError, match="joint helper-state space"):
            solve_occupation_lp(two_chains(), num_peers=1, state_limit=8)

    def test_assignment_for_unknown_state_raises(self):
        lp = solve_occupation_lp(two_chains(), num_peers=2)
        with pytest.raises(KeyError):
            lp.assignment_for((5, 5))

    def test_policy_plays_only_per_state_optimal_assignments(self):
        # Uncontrolled chains decouple the LP per state, so every
        # assignment the optimal policy plays is a per-state argmax.
        chains = two_chains()
        lp = solve_occupation_lp(chains, num_peers=3)
        for y, options in lp.policy.items():
            caps = np.array([chains[j].states[y[j]] for j in range(2)])
            best = max(
                even_split_welfare(caps, x)
                for x in itertools.product(range(2), repeat=3)
            )
            for x in options:
                assert even_split_welfare(caps, x) == pytest.approx(best)

    def test_custom_welfare_function(self):
        chains = two_chains()

        def min_rate_welfare(caps, assignment):
            loads = np.bincount(np.asarray(assignment), minlength=caps.size)
            rates = [caps[j] / loads[j] for j in assignment]
            return float(min(rates))

        lp = solve_occupation_lp(chains, num_peers=2, welfare=min_rate_welfare)
        # Max-min per-peer rate with 2 peers: putting each on its own helper
        # gives min(C1, C2); sharing the best helper gives max(C1,C2)/2.
        expected = 0.0
        for y, pi_y in lp.stationary.items():
            caps = np.array([chains[j].states[y[j]] for j in range(2)])
            expected += pi_y * max(min(caps), max(caps) / 2)
        assert lp.value == pytest.approx(expected, rel=1e-6)


class TestDecomposedOptimum:
    def test_single_chain_single_peer(self):
        chain = MarkovChain(np.full((2, 2), 0.5), states=[100.0, 300.0], rng=0)
        assert decomposed_optimum([chain], 1) == pytest.approx(200.0)

    def test_state_limit_guard(self):
        with pytest.raises(ValueError, match="state space"):
            decomposed_optimum(two_chains(), 1, state_limit=8)

    def test_assignment_limit_guard(self):
        with pytest.raises(ValueError, match="assignment space"):
            decomposed_optimum(two_chains(), 10, assignment_limit=100)

    def test_monotone_in_peers_until_h(self):
        chains = two_chains()
        v1 = decomposed_optimum(chains, 1)
        v2 = decomposed_optimum(chains, 2)
        v3 = decomposed_optimum(chains, 3)
        assert v1 < v2
        assert v2 == pytest.approx(v3)  # extra peers beyond H add nothing
