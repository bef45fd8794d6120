"""Tests for repro.game.nash."""

import math

import pytest

from repro.game.helper_selection import HelperSelectionGame
from repro.game.nash import (
    compositions,
    enumerate_pure_nash,
    is_pure_nash,
    nash_load_vectors,
)


class TestIsPureNash:
    def test_balanced_equal_helpers_is_nash(self):
        game = HelperSelectionGame(4, [800.0, 800.0])
        assert is_pure_nash(game, (0, 0, 1, 1))

    def test_all_on_one_helper_not_nash(self):
        game = HelperSelectionGame(4, [800.0, 800.0])
        assert not is_pure_nash(game, (0, 0, 0, 0))

    def test_unbalanced_capacities(self):
        # C = (900, 300): loads (3, 1) gives rates (300, 300); deviation to
        # the other helper gives 900/4=225 or 300/2=150 -> Nash.
        game = HelperSelectionGame(4, [900.0, 300.0])
        assert is_pure_nash(game, (0, 0, 0, 1))
        # loads (2, 2): rates (450, 150); the 150-peers would deviate to
        # 900/3 = 300 -> not Nash.
        assert not is_pure_nash(game, (0, 0, 1, 1))

    def test_single_peer_on_best_helper(self):
        game = HelperSelectionGame(1, [700.0, 900.0])
        assert is_pure_nash(game, (1,))
        assert not is_pure_nash(game, (0,))


class TestNashLoadVectors:
    def test_equal_capacity_equilibria_are_balanced(self):
        game = HelperSelectionGame(4, [800.0, 800.0])
        vectors = {tuple(v) for v in nash_load_vectors(game)}
        assert vectors == {(2, 2)}

    def test_odd_population_two_equilibria(self):
        game = HelperSelectionGame(5, [800.0, 800.0])
        vectors = {tuple(v) for v in nash_load_vectors(game)}
        assert vectors == {(2, 3), (3, 2)}

    def test_every_vector_is_nash_when_expanded(self):
        game = HelperSelectionGame(4, [900.0, 300.0])
        for loads in nash_load_vectors(game):
            profile = []
            for j, n in enumerate(loads):
                profile.extend([j] * int(n))
            assert is_pure_nash(game, tuple(profile))

    def test_double_capacity_takes_double_load(self):
        # Loads (3, 6) give both groups 200; a deviator would get 150 or
        # 1200/7.  (4, 5) and (2, 7) each leave a peer a better helper.
        game = HelperSelectionGame(9, [600.0, 1200.0])
        vectors = {tuple(v) for v in nash_load_vectors(game)}
        assert vectors == {(3, 6)}

    def test_three_heterogeneous_helpers_have_an_equilibrium(self):
        game = HelperSelectionGame(9, [600.0, 1200.0, 300.0])
        vectors = list(nash_load_vectors(game))
        assert vectors
        for loads in vectors:
            assert sum(int(n) for n in loads) == 9
            profile = []
            for j, n in enumerate(loads):
                profile.extend([j] * int(n))
            assert is_pure_nash(game, tuple(profile))


class TestEnumeratePureNash:
    def test_matches_anonymous_enumeration(self):
        game = HelperSelectionGame(3, [800.0, 400.0])
        profiles = list(enumerate_pure_nash(game))
        assert profiles  # congestion games always have a pure NE
        anonymous = {tuple(v) for v in nash_load_vectors(game)}
        from repro.game.helper_selection import loads_from_profile

        observed = {
            tuple(loads_from_profile(p, 2).tolist()) for p in profiles
        }
        assert observed == anonymous

    def test_limit_guard(self):
        game = HelperSelectionGame(30, [800.0, 400.0])
        with pytest.raises(ValueError):
            list(enumerate_pure_nash(game, limit=10))


class TestCompositions:
    def test_count_is_stars_and_bars(self):
        count = sum(1 for _ in compositions(10, 4))
        assert count == math.comb(13, 3)

    def test_each_sums_to_total(self):
        for combo in compositions(5, 3):
            assert sum(combo) == 5

    def test_single_part(self):
        assert list(compositions(4, 1)) == [(4,)]

    def test_zero_total(self):
        assert list(compositions(0, 2)) == [(0, 0)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))
        with pytest.raises(ValueError):
            list(compositions(-1, 2))

