"""Cross-check the two formulations of the cooperative problem.

The occupation-measure LP (paper Sec. IV-A) is the reference oracle.  On
small instances, where the LP can still enumerate every assignment, the
symmetric closed form must report the same optimal average welfare —
with and without connection costs — and its fair load vectors must reach
the LP's per-state optimum.
"""

import numpy as np
import pytest

from repro.game.helper_selection import HelperSelectionGame
from repro.mdp.markov_chain import MarkovChain, birth_death_chain
from repro.mdp.occupation_lp import decomposed_optimum, solve_occupation_lp
from repro.mdp.symmetric import solve_symmetric_optimum

PAPER_LEVELS = [700.0, 800.0, 900.0]

# Per-helper connection costs against PAPER_LEVELS capacities: equal and
# cheap, one free helper, one helper whose margin is mostly negative, an
# expensive-but-fast helper, every margin negative, and three helpers
# where only the free one should take surplus peers.
CONNECTION_COSTS = [
    (50.0, 50.0),
    (0.0, 300.0),
    (100.0, 850.0),
    (750.0, 10.0),
    (900.0, 900.0),
    (400.0, 400.0, 0.0),
]


def paper_chains(num_helpers, stay=0.8):
    return [birth_death_chain(PAPER_LEVELS, stay, rng=i) for i in range(num_helpers)]


def game_welfare(costs):
    """LP welfare callback: the stage game's welfare under ``costs``."""

    def welfare(capacities, assignment):
        game = HelperSelectionGame(len(assignment), capacities, costs)
        return game.welfare(assignment)

    return welfare


@pytest.mark.parametrize("num_peers", [1, 2, 4])
@pytest.mark.parametrize("stay", [0.5, 0.9])
def test_lp_equals_symmetric(num_peers, stay):
    chains = paper_chains(2, stay)
    lp = solve_occupation_lp(chains, num_peers)
    sym = solve_symmetric_optimum(chains, num_peers)
    assert lp.value == pytest.approx(sym.value, rel=1e-6)


@pytest.mark.parametrize("num_peers", [1, 2, 3, 4])
@pytest.mark.parametrize("costs", CONNECTION_COSTS, ids=str)
def test_lp_equals_symmetric_with_connection_costs(costs, num_peers):
    chains = paper_chains(len(costs))
    lp = solve_occupation_lp(chains, num_peers, welfare=game_welfare(costs))
    sym = solve_symmetric_optimum(chains, num_peers, connection_costs=costs)
    assert lp.value == pytest.approx(sym.value, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("num_peers", [1, 2, 3, 4])
@pytest.mark.parametrize("costs", CONNECTION_COSTS, ids=str)
def test_symmetric_loads_reach_lp_state_optimum(costs, num_peers):
    # The closed form's fair load vector is a welfare-optimal assignment:
    # in every helper state it earns what the LP's policy earns there.
    chains = paper_chains(len(costs))
    lp = solve_occupation_lp(chains, num_peers, welfare=game_welfare(costs))
    sym = solve_symmetric_optimum(chains, num_peers, connection_costs=costs)
    for state, loads in sym.per_state_loads.items():
        capacities = [chain.states[k] for chain, k in zip(chains, state)]
        profile = np.repeat(np.arange(len(costs)), loads)
        earned = HelperSelectionGame(num_peers, capacities, costs).welfare(profile)
        assert earned == pytest.approx(lp.per_state_value[state], abs=1e-6), state


@pytest.mark.parametrize("num_peers", [1, 2, 3, 4])
def test_lp_equals_symmetric_on_mixed_chains(num_peers):
    # Three helpers with different level sets and dynamics.
    chains = [
        MarkovChain([[0.7, 0.3], [0.4, 0.6]], states=[500.0, 1000.0], rng=0),
        birth_death_chain(PAPER_LEVELS, 0.8, rng=1),
        MarkovChain(
            [[0.6, 0.2, 0.2], [0.3, 0.5, 0.2], [0.1, 0.1, 0.8]],
            states=[300.0, 600.0, 1200.0],
            rng=2,
        ),
    ]
    lp = solve_occupation_lp(chains, num_peers)
    sym = solve_symmetric_optimum(chains, num_peers)
    assert lp.value == pytest.approx(sym.value, rel=1e-6)


@pytest.mark.parametrize("num_peers", [1, 3])
@pytest.mark.parametrize(
    "chain",
    [
        birth_death_chain(PAPER_LEVELS, 0.9, rng=0),
        MarkovChain([[0.9, 0.1], [0.3, 0.7]], states=[400.0, 1000.0], rng=0),
        MarkovChain(
            [[0.5, 0.5, 0.0], [0.2, 0.2, 0.6], [0.4, 0.0, 0.6]],
            states=[300.0, 600.0, 1200.0],
            rng=0,
        ),
    ],
    ids=["birth_death", "two_state", "three_state"],
)
def test_single_helper_value_is_stationary_mean(chain, num_peers):
    # One helper leaves nothing to decide: the optimum is the chain's
    # stationary mean capacity however many peers share it.
    expected = chain.expected_state_value()
    assert solve_occupation_lp([chain], num_peers).value == pytest.approx(expected)
    assert solve_symmetric_optimum([chain], num_peers).value == pytest.approx(expected)


def test_decomposed_matches_lp_on_heterogeneous_chains():
    chains = [
        MarkovChain(
            [[0.7, 0.3], [0.4, 0.6]], states=[500.0, 1000.0], rng=0
        ),
        birth_death_chain(PAPER_LEVELS, 0.8, rng=1),
    ]
    lp = solve_occupation_lp(chains, 2)
    assert lp.value == pytest.approx(decomposed_optimum(chains, 2), rel=1e-6)


def test_paper_small_scale_reference_value():
    # N=10, H=4 (paper Fig. 2): the optimum occupies every helper, so the
    # expected optimal welfare is 4 * E[C] = 4 * 800 = 3200 kbit/s.
    chains = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(4)]
    sym = solve_symmetric_optimum(chains, num_peers=10)
    assert sym.value == pytest.approx(3200.0, rel=1e-9)
