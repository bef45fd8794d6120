"""R2HS — the paper's regret-tracking recursion (Algorithms 1 and 2).

Algorithm 2 is Algorithm 1 with its history sums carried by the rank-one
recursion on the ``T`` matrix (Eqs. 3-4/3-5/3-6): O(H^2) time and memory
per stage regardless of the horizon.  With one constant step the two are
the same algorithm, so :class:`R2HSLearner` is the scalar learner of both
``rths`` and ``r2hs``; the literal Algorithm 1 sums survive only as the
reference oracle :class:`repro.core.proxy_regret.ExactProxyRegret`, which
``tests/core/test_proxy_regret.py`` compares the recursion against.  The
vectorized population
(:class:`repro.core.population.LearnerPopulation`) replicates this
learner for large-scale runs.

:func:`regret_matching_learner` builds the uniform-average ancestor of the
algorithm (Hart & Mas-Colell's reinforcement procedure): the same
recursion with the harmonic step schedule.  The tracking-vs-matching
ablation bench contrasts the two under bandwidth drift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.proxy_regret import RecursiveProxyRegret
from repro.core.regret_learner import RegretLearner
from repro.core.schedules import constant_step, harmonic_step
from repro.util.rng import Seedish


class R2HSLearner(RegretLearner):
    """Regret tracking with the recursive proxy regrets of Algorithm 2.

    Parameters
    ----------
    num_actions:
        Number of helpers ``H``.
    epsilon:
        Constant step size of the tracking recursion (paper's ``eps``).
    mu, delta, u_max:
        As in :class:`repro.core.regret_learner.RegretLearner`.
    """

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
    ) -> None:
        estimator = RecursiveProxyRegret(num_actions, schedule=constant_step(epsilon))
        super().__init__(
            num_actions,
            estimator,
            rng=rng,
            mu=mu,
            delta=delta,
            u_max=u_max,
        )
        self._epsilon = float(epsilon)

    @property
    def epsilon(self) -> float:
        """The constant step size."""
        return self._epsilon

    @property
    def accumulator(self) -> np.ndarray:
        """The normalized ``S = eps * T`` matrix of the recursion."""
        return self._estimator.accumulator  # type: ignore[attr-defined]


def regret_matching_learner(
    num_actions: int,
    rng: Seedish = None,
    mu: Optional[float] = None,
    delta: float = 0.1,
    u_max: float = 1.0,
) -> RegretLearner:
    """Classic regret matching (uniform averaging over all history).

    This is the Hart & Mas-Colell reinforcement procedure the paper builds
    on: the same proxy-regret recursion with step schedule ``1/n``.  It
    converges to the CE set in stationary environments but cannot track a
    drifting one — the property the tracking ablation demonstrates.
    """
    return RegretLearner(
        num_actions,
        RecursiveProxyRegret(num_actions, schedule=harmonic_step()),
        rng=rng,
        mu=mu,
        delta=delta,
        u_max=u_max,
    )
