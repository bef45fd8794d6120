"""Tests for repro.game.helper_selection."""

import pytest

from repro.game.helper_selection import HelperSelectionGame, loads_from_profile


class TestLoadsFromProfile:
    def test_counts(self):
        assert loads_from_profile([0, 1, 1, 2], 4).tolist() == [1, 2, 1, 0]

    def test_offline_entries_skipped(self):
        assert loads_from_profile([-1, 1, -1], 2).tolist() == [0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            loads_from_profile([0, 3], 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            loads_from_profile([[0, 1]], 2)


class TestHelperSelectionGame:
    def test_paper_utility_formula(self):
        # u_i = C_{h_j} / load_{h_j} (paper Sec. III-A).
        game = HelperSelectionGame(3, [900.0, 600.0])
        profile = (0, 0, 1)
        assert game.utility(0, profile) == 450.0
        assert game.utility(2, profile) == 600.0

    def test_all_utilities_matches_scalar(self):
        game = HelperSelectionGame(4, [700.0, 800.0, 900.0])
        profile = (0, 1, 1, 2)
        vectorized = game.all_utilities(profile)
        for i in range(4):
            assert vectorized[i] == pytest.approx(game.utility(i, profile))

    def test_welfare_is_occupied_capacity(self):
        game = HelperSelectionGame(5, [700.0, 800.0, 900.0])
        # Helpers 0 and 2 occupied -> welfare 1600 regardless of split.
        assert game.welfare((0, 0, 0, 2, 2)) == pytest.approx(1600.0)
        assert game.welfare((0, 0, 2, 2, 2)) == pytest.approx(1600.0)

    def test_connection_costs_subtract(self):
        game = HelperSelectionGame(2, [800.0, 800.0], connection_costs=[50.0, 0.0])
        assert game.utility(0, (0, 1)) == 750.0
        assert game.utility(1, (0, 1)) == 800.0

    def test_deviation_utility_switch(self):
        game = HelperSelectionGame(3, [900.0, 600.0])
        profile = (0, 0, 1)
        # Peer 2 switching to helper 0 would make the load 3.
        assert game.deviation_utility(profile, 2, 0) == 300.0

    def test_deviation_utility_stay(self):
        game = HelperSelectionGame(3, [900.0, 600.0])
        profile = (0, 0, 1)
        assert game.deviation_utility(profile, 0, 0) == 450.0

    def test_proportional_loads(self):
        game = HelperSelectionGame(9, [600.0, 1200.0])
        assert game.proportional_loads().tolist() == [3.0, 6.0]

    def test_with_capacities_copies_costs(self):
        game = HelperSelectionGame(2, [800.0, 800.0], connection_costs=[10.0, 0.0])
        updated = game.with_capacities([900.0, 900.0])
        assert updated.utility(0, (0, 1)) == 890.0

    def test_profile_length_validated(self):
        game = HelperSelectionGame(3, [900.0, 600.0])
        with pytest.raises(ValueError):
            game.utility(0, (0, 1))

    def test_rejects_zero_peers(self):
        with pytest.raises(ValueError):
            HelperSelectionGame(0, [800.0])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            HelperSelectionGame(2, [-800.0])

    def test_rejects_mismatched_costs(self):
        with pytest.raises(ValueError):
            HelperSelectionGame(2, [800.0, 900.0], connection_costs=[1.0])

    def test_capacities_readonly(self):
        game = HelperSelectionGame(2, [800.0, 900.0])
        with pytest.raises(ValueError):
            game.capacities[0] = 0.0
