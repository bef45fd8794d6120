"""Tests for repro.game.best_response — including the Sec. III-B pathology."""

import numpy as np
import pytest

from repro.game.best_response import (
    BestResponseLearner,
    oscillation_period,
    simultaneous_best_response_path,
)
from repro.game.helper_selection import HelperSelectionGame


class TestSimultaneousBestResponse:
    def test_paper_oscillation_two_equal_helpers(self):
        # Sec. III-B: all peers on h1 -> all switch to h2 -> all switch back.
        game = HelperSelectionGame(6, [800.0, 800.0])
        path = simultaneous_best_response_path(game, [0] * 6, num_stages=6)
        assert path[1].tolist() == [1] * 6
        assert path[2].tolist() == [0] * 6
        assert oscillation_period(path) == 2

    def test_oscillation_period_none_for_converging_path(self):
        path = np.array([[0, 1], [0, 0]])
        assert oscillation_period(path) is None

    def test_no_switch_when_already_best(self):
        # Balanced profile on equal helpers: anticipated rate of joining the
        # other helper (800/3) is below the current 800/2 -> nobody moves.
        game = HelperSelectionGame(4, [800.0, 800.0])
        path = simultaneous_best_response_path(game, [0, 0, 1, 1], num_stages=3)
        assert np.array_equal(path[0], path[-1])

    def test_wrong_profile_length_rejected(self):
        game = HelperSelectionGame(3, [800.0, 800.0])
        with pytest.raises(ValueError):
            simultaneous_best_response_path(game, [0, 0], num_stages=2)


class TestBestResponseLearner:
    def test_explores_every_action_first(self):
        learner = BestResponseLearner(3, rng=0)
        seen = set()
        for _ in range(3):
            action = learner.act()
            seen.add(action)
            learner.observe(action, 10.0 * (action + 1))
        assert seen == {0, 1, 2}

    def test_exploits_best_estimate(self):
        learner = BestResponseLearner(2, rng=0)
        for _ in range(2):
            action = learner.act()
            learner.observe(action, 100.0 if action == 1 else 10.0)
        assert learner.act() == 1
        assert learner.strategy().tolist() == [0.0, 1.0]

    def test_estimate_tracks_recent_utilities(self):
        learner = BestResponseLearner(2, rng=0, memory=1.0)
        for _ in range(2):
            action = learner.act()
            learner.observe(action, 100.0 if action == 1 else 10.0)
        # Tank action 1; with memory=1 the estimate becomes the last value.
        learner.observe(1, 1.0)
        assert learner.act() == 0

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            BestResponseLearner(2, memory=0.0)

    def test_observe_validates_action(self):
        learner = BestResponseLearner(2, rng=0)
        with pytest.raises(ValueError):
            learner.observe(5, 1.0)
