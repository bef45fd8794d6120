"""The minimal learner protocol shared across the library.

A *learner* is the per-peer strategy object.  The repeated-game driver and
the discrete-event streaming system both interact with learners
exclusively through this protocol, so any strategy — RTHS, R2HS, regret
matching, best response, epsilon-greedy, random — is plug-in compatible
everywhere.

The protocol is deliberately bandit-shaped: a learner picks an action and
later observes only *its own* realized utility, matching the paper's
zero-knowledge / opaque-feedback setting (Sec. III-B).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Learner(Protocol):
    """Strategy object for one player of the repeated helper-selection game."""

    @property
    def num_actions(self) -> int:
        """Size of the action set ``|A_i|`` (the number of helpers)."""
        ...

    def act(self) -> int:
        """Choose the action for the current stage.

        Returns the chosen action index in ``0..num_actions-1``.  May be
        stochastic; all randomness must come from the generator supplied at
        construction so runs are reproducible.
        """
        ...

    def observe(self, action: int, utility: float) -> None:
        """Record the realized utility for the action played this stage."""
        ...

    def strategy(self) -> np.ndarray:
        """Current mixed strategy (play probabilities for the next stage)."""
        ...


class LearnerBase:
    """Convenience base class implementing the bookkeeping most learners share.

    Subclasses implement :meth:`act` and :meth:`observe`; this base stores
    the action-set size, the injected generator and the stage counter.
    """

    def __init__(self, num_actions: int, rng: "np.random.Generator") -> None:
        if num_actions < 1:
            raise ValueError(f"num_actions must be >= 1, got {num_actions}")
        self._num_actions = int(num_actions)
        self._rng = rng
        self._stage = 0

    @property
    def num_actions(self) -> int:
        """Size of the action set ``|A_i|``."""
        return self._num_actions

    @property
    def stage(self) -> int:
        """Number of ``observe`` calls so far (the stage index ``n``)."""
        return self._stage

    def _advance_stage(self) -> None:
        self._stage += 1

    def strategy(self) -> np.ndarray:
        """Default: uniform; stateful learners override."""
        return np.full(self._num_actions, 1.0 / self._num_actions)
