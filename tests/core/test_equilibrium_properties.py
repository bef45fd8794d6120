"""Property tests linking the equilibrium concepts.

Structural facts the reproduction relies on, checked over random game
instances with hypothesis:

* every pure Nash equilibrium is a correlated equilibrium, so the
  welfare-best CE is at least as good as the welfare-best pure NE
  (this is why the paper prefers CE: "usually leads to better performance
  in terms of system efficiency");
* the CE LP solution always satisfies the Eq. (3-1) inequalities;
* a point-mass distribution on a pure NE passes the empirical CE check;
* the paper's claim on a static game: regret-tracking play approaches
  the CE set, with CE welfare.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equilibrium import (
    ce_welfare_bounds,
    empirical_ce_regret_report,
    solve_ce_lp,
)
from repro.core.population import LearnerPopulation
from repro.game.helper_selection import HelperSelectionGame
from repro.game.nash import enumerate_pure_nash
from repro.game.repeated_game import StaticCapacities, Trajectory

game_params = st.tuples(
    st.integers(min_value=2, max_value=4),      # peers
    st.integers(min_value=2, max_value=3),      # helpers
    st.integers(min_value=0, max_value=10**6),  # seed
)


def random_game(num_peers, num_helpers, seed):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(100.0, 1000.0, size=num_helpers)
    return HelperSelectionGame(num_peers, caps)


@settings(max_examples=40, deadline=None)
@given(game_params)
def test_best_ce_welfare_dominates_best_nash(params):
    game = random_game(*params)
    _, ce_welfare = solve_ce_lp(game, objective="welfare")
    nash_welfares = [
        game.welfare(profile) for profile in enumerate_pure_nash(game)
    ]
    assert nash_welfares, "congestion games always have a pure NE"
    assert ce_welfare >= max(nash_welfares) - 1e-6


@settings(max_examples=40, deadline=None)
@given(game_params)
def test_ce_lp_solution_satisfies_eq_3_1(params):
    game = random_game(*params)
    dist, _ = solve_ce_lp(game, objective="welfare")
    for i in range(game.num_players):
        for j in range(game.num_helpers):
            for k in range(game.num_helpers):
                if j == k:
                    continue
                lhs = sum(
                    prob
                    * (
                        game.utility(i, game.deviate(profile, i, k))
                        - game.utility(i, profile)
                    )
                    for profile, prob in dist.items()
                    if profile[i] == j
                )
                assert lhs <= 1e-6


@settings(max_examples=30, deadline=None)
@given(game_params)
def test_worst_ce_welfare_not_above_best_ce(params):
    game = random_game(*params)
    _, worst = solve_ce_lp(game, objective="min_welfare")
    _, best = solve_ce_lp(game, objective="welfare")
    assert worst <= best + 1e-6


@settings(max_examples=30, deadline=None)
@given(game_params)
def test_pure_nash_point_mass_has_zero_empirical_ce_regret(params):
    from repro.core.equilibrium import empirical_ce_regret
    from repro.game.helper_selection import loads_from_profile
    from repro.game.repeated_game import Trajectory

    game = random_game(*params)
    nash = np.asarray(next(enumerate_pure_nash(game)), dtype=int)
    caps = np.asarray(game.capacities)
    stages = 10
    loads = loads_from_profile(nash, game.num_helpers)
    trajectory = Trajectory(
        capacities=np.tile(caps, (stages, 1)),
        actions=np.tile(nash, (stages, 1)),
        loads=np.tile(loads, (stages, 1)),
        utilities=np.tile(caps[nash] / loads[nash], (stages, 1)),
    )
    assert empirical_ce_regret(trajectory) <= 1e-9


U_MAX = 900.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=4),  # peers
    st.lists(st.sampled_from([700.0, 800.0, 900.0]), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),  # learner seed
)
def test_learner_play_approaches_the_ce_set_of_a_static_game(
    num_peers, capacities, seed
):
    """Over the last half of 3000 stages, the empirical play of the
    paper's recursion (eps = delta = 0.05) is within 0.1 u_max of every
    Eq. (3-1) inequality, and its mean welfare lies between the worst
    and the best CE welfare, up to 0.1 u_max."""
    game = HelperSelectionGame(num_peers, capacities)
    population = LearnerPopulation(
        num_peers, len(capacities), epsilon=0.05, delta=0.05, u_max=U_MAX, rng=seed
    )
    played = population.run(StaticCapacities(capacities), 3000)
    tail = Trajectory(
        capacities=played.capacities[1500:],
        actions=played.actions[1500:],
        loads=played.loads[1500:],
        utilities=played.utilities[1500:],
    )
    assert empirical_ce_regret_report(tail, u_max=U_MAX).max_regret <= 0.1
    worst, best = ce_welfare_bounds(game)
    assert worst - 0.1 * U_MAX <= tail.welfare.mean() <= best + 0.1 * U_MAX
