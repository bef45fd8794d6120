"""Bandit (proxy) regret estimation — paper Eqs. (3-2) through (3-6).

A peer only observes the utility of the helper it actually used, so the
regret "for not having played ``k`` instead of ``j``" must be estimated from
on-policy data.  Following Hart & Mas-Colell's reinforcement procedure [20]
with the paper's recency-weighted modification, the proxy regret is

    Q^n(j, k) = [ Uhat^n(k)  -  Ubar^n(j) ]^+                       (3-3)

    Uhat^n(k) = sum_{tau<=n, a^tau=k} w_tau * (p^tau(j)/p^tau(k)) * u^tau
    Ubar^n(j) = sum_{tau<=n, a^tau=j} w_tau * u^tau

with exponential weights ``w_tau = eps * (1-eps)^{n-tau}`` (uniform weights
``1/n`` recover the original procedure).  The importance ratio
``p(j)/p(k)`` makes the time spent on each action comparable (Sec. III-B).

Two interchangeable implementations:

* :class:`RecursiveProxyRegret` maintains the matrix ``T`` of Eq. (3-4) via
  the rank-one recursion of Eq. (3-5) — Algorithm 2's trick — in O(H^2)
  per stage and O(H^2) memory.  Every learner runs it: the scalar
  :class:`~repro.core.r2hs.R2HSLearner` (for both ``rths`` and ``r2hs``)
  and, batched, the vectorized populations.
* :class:`ExactProxyRegret` stores the full private history and evaluates
  the sums verbatim each stage — the literal reading of Algorithm 1
  (O(n) memory, O(n·H²) per stage).  It is the reference oracle the
  recursion is tested against, not a path any run takes.

Faithfulness note: as printed, Eq. (3-5) lacks the ``(1-eps)`` forgetting
factor, while Eq. (3-3) is an exponentially weighted sum.  We include the
factor so the recursion equals the declarative sums exactly; the
equivalence is asserted by ``tests/core/test_proxy_regret.py``.  With the
normalized accumulator ``S = eps * T`` the recursion reads

    S^n = (1 - eps_n) * S^{n-1} + eps_n * (u^n / p^n(a^n)) * P^n (x) e_{a^n}

and ``Q^n(j,k) = (S^n(j,k) - S^n(j,j))^+`` — the paper's Eq. (3-6) with the
``eps`` factor absorbed.  Both estimators take any step schedule (see
:mod:`repro.core.schedules`), so the harmonic step covers regret matching
too.

What a constant step does to the learners
-----------------------------------------

The forgetting factor is what makes RTHS *track*: evidence older than
about ``1/eps`` stages has faded, so the regrets follow a drifting
environment.  Three consequences show in the figures, tests and benches.

* **The instantaneous regret has a noise floor.**  ``S^n`` is an
  exponentially weighted mean over an effective window of ``~1/eps``
  stages, so the noise of its importance-weighted samples never averages
  away: its standard deviation scales like ``sqrt(eps / 2)`` times the
  per-sample spread, and the ratio ``p(j)/p(k) <= m/delta`` inflates that
  spread.  The instantaneous worst-player regret therefore settles on a
  small positive floor, even in a static game.  The time-averaged regret
  of Hart & Mas-Colell's theorem (Fig. 1) is the quantity that decays
  towards zero.
* **Re-entering an abandoned helper is a trap of ``~1/delta`` stages.**
  Row ``j`` of ``S`` learns about an alternative ``k`` only in proportion
  to ``p(j)``, the probability of ``j`` when ``k`` was played.  Once a
  peer has left ``j`` (a failed helper, say), ``p(j)`` sits at the floor
  ``delta/m``, so row ``j`` goes stale with small regrets.  A peer whose
  exploration lands it on ``j`` again reads that stale row: its switching
  term ``min(Q(j, k)/mu, 1/(m-1))`` is small, and it leaves mostly by
  exploring, with probability about ``delta (m-1)/m`` per stage.  A dead
  helper therefore keeps a residual load above the exploration floor,
  and loads drain off it over tens of stages, not one.
* **``eps`` well above ``delta/m`` forgets the alternatives.**  A settled
  peer plays an alternative helper about once every ``m/delta`` stages,
  and only those plays refresh the estimate ``Uhat(k)``.  Between two
  visits the accumulator decays by ``(1-eps)^(m/delta) ~ exp(-eps m/delta)``.
  With ``eps >> delta/m`` almost nothing survives to the next visit, so
  each regret rests on one noisy sample and play converges worse; with
  ``eps`` of order ``delta/m`` or below, several visits overlap in
  memory.  The ``mu`` trade-off, the other knob the parameter ablation
  sweeps, is in :func:`repro.core.probability.default_mu`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.schedules import StepSchedule, constant_step
from repro.util.validation import require_positive_int, require_probability_vector


class ExactProxyRegret:
    """History-based proxy regret (Algorithm 1 sums, computed literally).

    The reference oracle for :class:`RecursiveProxyRegret`; drive it
    through ``RegretLearner(h, ExactProxyRegret(h), ...)`` to get the
    literal Algorithm 1 learner.

    Parameters
    ----------
    num_actions:
        Size of the action set ``H``.
    schedule:
        Step-size schedule; the default constant 0.05 is the tracking
        setting.  Stage weights are built from the schedule as
        ``w_tau = eps_tau * prod_{s>tau} (1 - eps_s)`` which reduces to the
        paper's ``eps (1-eps)^{n-tau}`` for constant steps.
    """

    def __init__(
        self,
        num_actions: int,
        schedule: Optional[StepSchedule] = None,
    ) -> None:
        self._m = require_positive_int(num_actions, "num_actions")
        self._schedule = schedule if schedule is not None else constant_step(0.05)
        self._actions: List[int] = []
        self._utilities: List[float] = []
        self._probabilities: List[np.ndarray] = []

    @property
    def num_actions(self) -> int:
        """Action-set size ``H``."""
        return self._m

    @property
    def num_stages(self) -> int:
        """Number of recorded stages ``n``."""
        return len(self._actions)

    def update(self, action: int, utility: float, probabilities: np.ndarray) -> None:
        """Record one stage: the action played, its utility, and the mixed
        strategy it was drawn from."""
        if not 0 <= action < self._m:
            raise ValueError(f"action {action} out of range 0..{self._m - 1}")
        probs = require_probability_vector(probabilities, "probabilities")
        if probs.size != self._m:
            raise ValueError("probabilities must have one entry per action")
        self._actions.append(int(action))
        self._utilities.append(float(utility))
        self._probabilities.append(probs.copy())

    def _stage_weights(self) -> np.ndarray:
        """``w_tau`` for tau = 1..n under the schedule (tau is 1-based)."""
        n = self.num_stages
        eps = np.array([self._schedule(t) for t in range(1, n + 1)])
        # w_tau = eps_tau * prod_{s=tau+1..n} (1 - eps_s)
        survival = np.concatenate([np.cumprod((1.0 - eps)[::-1])[::-1][1:], [1.0]])
        return eps * survival

    def regret_matrix(self) -> np.ndarray:
        """Full proxy-regret matrix ``Q^n`` of shape ``(H, H)``.

        ``Q[j, k]`` is the (clipped) estimated gain from having played ``k``
        whenever ``j`` was played.  The diagonal is zero.
        """
        q = np.zeros((self._m, self._m))
        n = self.num_stages
        if n == 0:
            return q
        weights = self._stage_weights()
        actions = np.asarray(self._actions)
        utils = np.asarray(self._utilities)
        probs = np.stack(self._probabilities)  # (n, H)
        for j in range(self._m):
            played_j = actions == j
            ubar_j = float((weights[played_j] * utils[played_j]).sum())
            for k in range(self._m):
                if k == j:
                    continue
                played_k = actions == k
                ratio = probs[played_k, j] / probs[played_k, k]
                uhat_k = float(
                    (weights[played_k] * ratio * utils[played_k]).sum()
                )
                q[j, k] = max(0.0, uhat_k - ubar_j)
        return q

    def regret_row(self, action: int) -> np.ndarray:
        """Row ``Q^n(action, ·)`` — all the probability update needs."""
        return self.regret_matrix()[action]

    def max_regret(self) -> float:
        """``max_{j,k} Q^n(j,k)`` — the scalar regret tracked in Fig. 1."""
        return float(self.regret_matrix().max(initial=0.0))


class RecursiveProxyRegret:
    """Rank-one recursive proxy regret — Algorithm 2's ``T`` matrix.

    Maintains the normalized accumulator ``S`` (see module docstring);
    :meth:`regret_matrix` returns ``Q`` with entries
    ``(S(j,k) - S(j,j))^+`` and a zero diagonal.
    """

    def __init__(
        self,
        num_actions: int,
        schedule: Optional[StepSchedule] = None,
    ) -> None:
        self._m = require_positive_int(num_actions, "num_actions")
        self._schedule = schedule if schedule is not None else constant_step(0.05)
        self._s = np.zeros((self._m, self._m))
        self._n = 0

    @property
    def num_actions(self) -> int:
        """Action-set size ``H``."""
        return self._m

    @property
    def num_stages(self) -> int:
        """Number of recorded stages ``n``."""
        return self._n

    @property
    def accumulator(self) -> np.ndarray:
        """The normalized ``S`` matrix (``eps * T`` for constant steps)."""
        return self._s.copy()

    def update(self, action: int, utility: float, probabilities: np.ndarray) -> None:
        """Apply Eq. (3-5): decay ``S`` and add the rank-one increment.

        The increment touches only column ``action``:
        ``S[j, action] += eps_n * (u / p(action)) * p(j)``.
        """
        if not 0 <= action < self._m:
            raise ValueError(f"action {action} out of range 0..{self._m - 1}")
        probs = require_probability_vector(probabilities, "probabilities")
        if probs.size != self._m:
            raise ValueError("probabilities must have one entry per action")
        if probs[action] <= 0:
            raise ValueError(
                f"played action {action} has zero probability; importance "
                "weighting is undefined (ensure delta-exploration > 0)"
            )
        self._n += 1
        eps = self._schedule(self._n)
        self._s *= 1.0 - eps
        self._s[:, action] += eps * (utility / probs[action]) * probs
        return None

    def regret_matrix(self) -> np.ndarray:
        """Proxy-regret matrix ``Q`` per Eq. (3-6) (diagonal zero)."""
        diag = np.diag(self._s)
        q = np.clip(self._s - diag[:, None], 0.0, None)
        np.fill_diagonal(q, 0.0)
        return q

    def regret_row(self, action: int) -> np.ndarray:
        """Row ``Q^n(action, ·)`` in O(H)."""
        row = np.clip(self._s[action] - self._s[action, action], 0.0, None)
        row[action] = 0.0
        return row

    def max_regret(self) -> float:
        """``max_{j,k} Q^n(j,k)``."""
        return float(self.regret_matrix().max(initial=0.0))
