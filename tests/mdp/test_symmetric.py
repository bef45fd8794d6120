"""Tests for repro.mdp.symmetric."""

import numpy as np
import pytest

from repro.mdp.markov_chain import birth_death_chain
from repro.mdp.symmetric import (
    optimal_assignment_for_state,
    optimal_welfare_for_state,
    optimal_welfare_series,
    solve_symmetric_optimum,
)

PAPER_LEVELS = [700.0, 800.0, 900.0]


class TestOptimalWelfareForState:
    def test_n_ge_h_sums_all_capacities(self):
        assert optimal_welfare_for_state([700, 800, 900], 5) == 2400.0

    def test_n_lt_h_takes_top_n(self):
        assert optimal_welfare_for_state([700, 800, 900], 2) == 1700.0

    def test_single_peer_takes_max(self):
        assert optimal_welfare_for_state([700, 800, 900], 1) == 900.0

    def test_with_costs_occupation_choice(self):
        # Helper margins: 100-10=90, 50-40=10. With 1 peer take the first.
        value = optimal_welfare_for_state(
            [100.0, 50.0], 1, connection_costs=[10.0, 40.0]
        )
        assert value == 90.0

    def test_with_costs_surplus_peers_pay_cheapest(self):
        # 3 peers, 2 helpers: occupy both (margins 90 + 10), surplus peer
        # pays the cheaper cost (10).
        value = optimal_welfare_for_state(
            [100.0, 50.0], 3, connection_costs=[10.0, 40.0]
        )
        assert value == pytest.approx(90.0 + 10.0 - 10.0)

    def test_high_costs_shrink_occupied_set(self):
        # Second helper has negative margin; never occupy it.
        value = optimal_welfare_for_state(
            [100.0, 50.0], 2, connection_costs=[0.0, 60.0]
        )
        assert value == 100.0  # both peers on helper 0 (second costs nothing extra)

    def test_rejects_zero_peers(self):
        with pytest.raises(ValueError):
            optimal_welfare_for_state([100.0], 0)

    @pytest.mark.parametrize("capacities", [[], [[700.0, 800.0]]], ids=["empty", "2d"])
    def test_rejects_malformed_capacities(self, capacities):
        with pytest.raises(ValueError, match="non-empty and 1-D"):
            optimal_welfare_for_state(capacities, 1)

    def test_rejects_mismatched_costs(self):
        with pytest.raises(ValueError, match="connection_costs"):
            optimal_welfare_for_state([700.0, 800.0], 2, connection_costs=[10.0])


class TestOptimalAssignmentForState:
    def test_loads_sum_to_n(self):
        loads = optimal_assignment_for_state([700, 800, 900], 7)
        assert loads.sum() == 7

    def test_all_helpers_occupied_when_n_ge_h(self):
        loads = optimal_assignment_for_state([700, 800, 900], 3)
        assert np.all(loads == 1)

    def test_water_filling_is_proportionalish(self):
        loads = optimal_assignment_for_state([600.0, 1200.0], 9)
        # 1200 helper should get about twice the peers of the 600 helper.
        assert loads[1] == 6
        assert loads[0] == 3

    def test_n_lt_h_occupies_top_capacities(self):
        loads = optimal_assignment_for_state([700, 800, 900], 2)
        assert loads.tolist() == [0, 1, 1]

    def test_welfare_of_assignment_matches_optimum(self):
        caps = np.array([700.0, 800.0, 900.0])
        loads = optimal_assignment_for_state(caps, 5)
        welfare = caps[loads > 0].sum()
        assert welfare == optimal_welfare_for_state(caps, 5)

    def test_with_costs_surplus_peers_join_cheapest_helper(self):
        # Both helpers are worth occupying; each surplus peer pays its
        # helper's cost, so both extra peers go to the free helper even
        # though the costly one offers the better split rate.
        loads = optimal_assignment_for_state(
            [800.0, 900.0], 4, connection_costs=[0.0, 300.0]
        )
        assert loads.tolist() == [3, 1]

    def test_with_costs_surplus_water_fills_equally_cheap_helpers(self):
        loads = optimal_assignment_for_state(
            [600.0, 1200.0, 900.0], 6, connection_costs=[0.0, 0.0, 500.0]
        )
        assert loads.tolist() == [2, 3, 1]

    def test_rejects_zero_peers(self):
        with pytest.raises(ValueError):
            optimal_assignment_for_state([700.0, 800.0], 0)


class TestSolveSymmetricOptimum:
    def test_matches_expected_total_capacity(self):
        chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(3)]
        result = solve_symmetric_optimum(chains, num_peers=10)
        expected = sum(c.expected_state_value() for c in chains)
        assert result.value == pytest.approx(expected, rel=1e-9)

    def test_stationary_sums_to_one(self):
        chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(2)]
        result = solve_symmetric_optimum(chains, num_peers=4)
        assert sum(result.stationary.values()) == pytest.approx(1.0)

    def test_per_state_loads_sum_to_n(self):
        chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(2)]
        result = solve_symmetric_optimum(chains, num_peers=4)
        for loads in result.per_state_loads.values():
            assert loads.sum() == 4

    def test_state_limit_guard(self):
        chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(4)]
        with pytest.raises(ValueError):
            solve_symmetric_optimum(chains, num_peers=4, state_limit=10)

    def test_rejects_no_chains(self):
        with pytest.raises(ValueError, match="chain"):
            solve_symmetric_optimum([], num_peers=1)

    def test_rejects_zero_peers(self):
        chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=0)]
        with pytest.raises(ValueError, match="num_peers"):
            solve_symmetric_optimum(chains, num_peers=0)


class TestOptimalWelfareSeries:
    def test_series_shape_and_values(self):
        path = np.array([[700.0, 900.0], [900.0, 900.0]])
        series = optimal_welfare_series(path, num_peers=5)
        assert series.tolist() == [1600.0, 1800.0]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            optimal_welfare_series(np.array([700.0, 900.0]), num_peers=2)
