"""Trivial comparison strategies: uniform random, sticky random, epsilon-greedy.

These anchor the low end of the evaluation: uniform random ignores feedback
entirely; sticky random models a peer that picks once and only re-picks on
rare "re-selection" events (a fixed overlay, the situation the paper says
prior helper works assumed); epsilon-greedy is the standard bandit strawman.
"""

from __future__ import annotations

import numpy as np

from repro.game.interfaces import LearnerBase
from repro.util.rng import Seedish, as_generator


class UniformRandomLearner(LearnerBase):
    """Picks a helper uniformly at random every stage."""

    def __init__(self, num_actions: int, rng: Seedish = None) -> None:
        super().__init__(num_actions, as_generator(rng))

    def act(self) -> int:
        return int(self._rng.integers(self.num_actions))

    def observe(self, action: int, utility: float) -> None:
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        self._advance_stage()

    def strategy(self) -> np.ndarray:
        return np.full(self.num_actions, 1.0 / self.num_actions)


class StickyLearner(LearnerBase):
    """Picks once, then re-picks uniformly with small probability per stage.

    Models the fixed user-helper topology of prior helper systems: the
    overlay only changes on rare reconnection events.
    """

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        switch_probability: float = 0.01,
    ) -> None:
        super().__init__(num_actions, as_generator(rng))
        if not 0 <= switch_probability <= 1:
            raise ValueError("switch_probability must lie in [0, 1]")
        self._switch_probability = float(switch_probability)
        self._current = int(self._rng.integers(num_actions))

    def act(self) -> int:
        if self._rng.random() < self._switch_probability:
            self._current = int(self._rng.integers(self.num_actions))
        return self._current

    def observe(self, action: int, utility: float) -> None:
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        self._advance_stage()

    def strategy(self) -> np.ndarray:
        probs = np.full(
            self.num_actions, self._switch_probability / self.num_actions
        )
        probs[self._current] += 1.0 - self._switch_probability
        return probs


class EpsilonGreedyLearner(LearnerBase):
    """Constant-epsilon greedy over exponentially-weighted rate estimates."""

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        epsilon: float = 0.1,
        step_size: float = 0.1,
    ) -> None:
        super().__init__(num_actions, as_generator(rng))
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0 < step_size <= 1:
            raise ValueError("step_size must lie in (0, 1]")
        self._epsilon = float(epsilon)
        self._step_size = float(step_size)
        self._estimates = np.zeros(num_actions)
        self._visited = np.zeros(num_actions, dtype=bool)

    def act(self) -> int:
        unvisited = np.flatnonzero(~self._visited)
        if unvisited.size:
            return int(self._rng.choice(unvisited))
        if self._rng.random() < self._epsilon:
            return int(self._rng.integers(self.num_actions))
        return int(np.argmax(self._estimates))

    def observe(self, action: int, utility: float) -> None:
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        if not self._visited[action]:
            self._estimates[action] = utility
            self._visited[action] = True
        else:
            self._estimates[action] += self._step_size * (
                utility - self._estimates[action]
            )
        self._advance_stage()

    def strategy(self) -> np.ndarray:
        probs = np.zeros(self.num_actions)
        unvisited = np.flatnonzero(~self._visited)
        if unvisited.size:
            probs[unvisited] = 1.0 / unvisited.size
            return probs
        probs += self._epsilon / self.num_actions
        probs[int(np.argmax(self._estimates))] += 1.0 - self._epsilon
        return probs
