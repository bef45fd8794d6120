"""Best-response dynamics for the helper-selection game.

Paper Sec. III-B motivates correlated equilibria with the herding pathology
of myopic best response: with two equal-capacity helpers and all peers on
``h1``, every peer simultaneously switches to the less-congested ``h2``,
overloading it, and the population oscillates forever.  This module provides

* :func:`simultaneous_best_response_path` — the pathological dynamic, used
  by the oscillation ablation bench;
* :class:`BestResponseLearner` — a myopic learner usable inside the repeated
  game driver: it estimates each helper's attainable rate from its own past
  observations and deterministically picks the best estimate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.game.helper_selection import HelperSelectionGame, loads_from_profile
from repro.game.interfaces import LearnerBase
from repro.util.rng import Seedish, as_generator


def simultaneous_best_response_path(
    game: HelperSelectionGame,
    initial_profile: Sequence[int],
    num_stages: int,
) -> np.ndarray:
    """Trajectory of simultaneous myopic best responses.

    At each stage every peer switches to the helper that *would have been*
    best against the previous stage's loads (the classic herd).  Returns an
    array of shape ``(num_stages + 1, N)`` with profiles, starting with the
    initial one.
    """
    profile = np.asarray(initial_profile, dtype=int).copy()
    if profile.size != game.num_players:
        raise ValueError("initial_profile has wrong length")
    caps = np.asarray(game.capacities, dtype=float)
    costs = np.asarray(game.connection_costs, dtype=float)
    path = np.empty((num_stages + 1, profile.size), dtype=int)
    path[0] = profile
    for t in range(1, num_stages + 1):
        loads = loads_from_profile(profile, game.num_helpers)
        # A peer evaluates helper k at the rate it would see joining the
        # *current* crowd: own helper at C_j/n_j, others at C_k/(n_k+1).
        anticipated = caps / (loads + 1) - costs
        own = caps[profile] / np.maximum(loads[profile], 1) - costs[profile]
        best = int(np.argmax(anticipated))
        switch = anticipated[best] > own + 1e-12
        profile = np.where(switch, best, profile)
        path[t] = profile
    return path


def oscillation_period(path: np.ndarray) -> Optional[int]:
    """Detect a cycle in a best-response trajectory.

    Returns the period of the first repeated profile (e.g. 2 for the
    two-helper herd), or ``None`` if no profile repeats.
    """
    seen = {}
    for t, profile in enumerate(map(tuple, path)):
        if profile in seen:
            return t - seen[profile]
        seen[profile] = t
    return None


class BestResponseLearner(LearnerBase):
    """Myopic learner: deterministically plays the empirically best helper.

    Keeps an exponentially-weighted estimate of the rate each helper
    delivered when played, explores unvisited helpers first, then always
    plays the argmax estimate.  Inside a population this reproduces the herd
    behaviour of Sec. III-B in learner form, making it directly comparable
    to RTHS under the same driver.
    """

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        memory: float = 0.3,
    ) -> None:
        super().__init__(num_actions, as_generator(rng))
        if not 0 < memory <= 1:
            raise ValueError(f"memory must lie in (0, 1], got {memory}")
        self._memory = float(memory)
        self._estimates = np.zeros(num_actions)
        self._visited = np.zeros(num_actions, dtype=bool)

    def act(self) -> int:
        unvisited = np.flatnonzero(~self._visited)
        if unvisited.size:
            return int(self._rng.choice(unvisited))
        return int(np.argmax(self._estimates))

    def observe(self, action: int, utility: float) -> None:
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        if not self._visited[action]:
            self._estimates[action] = utility
            self._visited[action] = True
        else:
            self._estimates[action] += self._memory * (
                utility - self._estimates[action]
            )
        self._advance_stage()

    def strategy(self) -> np.ndarray:
        probs = np.zeros(self.num_actions)
        unvisited = np.flatnonzero(~self._visited)
        if unvisited.size:
            probs[unvisited] = 1.0 / unvisited.size
        else:
            probs[int(np.argmax(self._estimates))] = 1.0
        return probs
