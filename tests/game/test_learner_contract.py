"""The ``Learner`` protocol, checked the same way for every learner.

Each strategy the repeated-game driver can host — the baselines, the
myopic best-response learner and the regret learners of paper
Algorithms 1 and 2 — must honour one contract: actions in range, a
valid mixed strategy, range-checked feedback, a stage count equal to the
observations fed, seeded reproducibility, and a clean run under
:class:`~repro.game.repeated_game.RepeatedGameDriver`.
"""

import numpy as np
import pytest

from repro.core.proxy_regret import ExactProxyRegret
from repro.core.r2hs import R2HSLearner, regret_matching_learner
from repro.core.regret_learner import RegretLearner
from repro.game.baselines import (
    EpsilonGreedyLearner,
    StickyLearner,
    UniformRandomLearner,
)
from repro.game.best_response import BestResponseLearner
from repro.game.repeated_game import RepeatedGameDriver, StaticCapacities

CAPS = np.array([700.0, 800.0, 900.0])

BASELINES = {
    "uniform": lambda h, seed: UniformRandomLearner(h, rng=seed),
    "sticky": lambda h, seed: StickyLearner(h, rng=seed, switch_probability=0.2),
    "epsilon_greedy": lambda h, seed: EpsilonGreedyLearner(h, rng=seed),
    "best_response": lambda h, seed: BestResponseLearner(h, rng=seed),
}
REGRET_LEARNERS = {
    # Algorithm 1 with its literal history sums (the reference oracle).
    "rths": lambda h, seed: RegretLearner(
        h, ExactProxyRegret(h), rng=seed, u_max=900.0
    ),
    "r2hs": lambda h, seed: R2HSLearner(h, rng=seed, u_max=900.0),
    "regret_matching": lambda h, seed: regret_matching_learner(
        h, rng=seed, u_max=900.0
    ),
}
LEARNERS = {**BASELINES, **REGRET_LEARNERS}


def play(learner, stages):
    """Feed ``learner`` the rate it would get alone on each helper."""
    actions = []
    for _ in range(stages):
        action = learner.act()
        learner.observe(action, float(CAPS[action]))
        actions.append(action)
    return actions


def assert_distribution(strategy, size):
    assert strategy.shape == (size,)
    assert np.all(strategy >= 0)
    assert strategy.sum() == pytest.approx(1.0)


@pytest.fixture(params=sorted(LEARNERS))
def make(request):
    return LEARNERS[request.param]


def test_actions_stay_in_range(make):
    learner = make(3, 0)
    for action in play(learner, 200):
        assert isinstance(action, int)
        assert 0 <= action < 3


def test_strategy_is_a_distribution(make):
    learner = make(3, 0)
    assert_distribution(learner.strategy(), 3)
    for _ in range(50):
        play(learner, 1)
        assert_distribution(learner.strategy(), 3)


def test_observe_rejects_out_of_range_action(make):
    learner = make(3, 0)
    for action in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            learner.observe(action, 800.0)


def test_stage_counts_observations(make):
    learner = make(3, 0)
    assert learner.stage == 0
    play(learner, 17)
    assert learner.stage == 17
    with pytest.raises(ValueError):
        learner.observe(3, 800.0)
    assert learner.stage == 17


def test_same_seed_same_play(make):
    assert play(make(3, 7), 100) == play(make(3, 7), 100)


def test_rejects_empty_action_set(make):
    with pytest.raises(ValueError):
        make(0, 0)


def test_runs_under_repeated_game_driver(make):
    learners = [make(3, seed) for seed in range(5)]
    trajectory = RepeatedGameDriver(learners, StaticCapacities(CAPS)).run(40)
    assert trajectory.actions.shape == (40, 5)
    assert np.all(trajectory.utilities > 0)
    # Even splitting hands out at most the capacity of the helpers in use.
    assert np.all(trajectory.utilities.sum(axis=1) <= CAPS.sum() + 1e-9)
    assert all(learner.stage == 40 for learner in learners)


@pytest.mark.parametrize("kind", sorted(BASELINES))
def test_single_helper_is_always_played(kind):
    learner = BASELINES[kind](1, 0)
    assert play(learner, 20) == [0] * 20
    assert learner.strategy().tolist() == [1.0]


@pytest.mark.parametrize("kind", sorted(REGRET_LEARNERS))
def test_regret_learners_need_two_helpers(kind):
    with pytest.raises(ValueError, match="at least two actions"):
        REGRET_LEARNERS[kind](1, 0)
