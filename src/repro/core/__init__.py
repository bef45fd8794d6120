"""The paper's contribution: regret-tracking helper selection.

Layout
------

* :mod:`repro.core.schedules` — step-size schedules for the scalar
  proxy-regret estimators.  The paper's regret *tracking* is the
  constant-step-size member of a family that also contains classic Hart &
  Mas-Colell regret *matching* (harmonic step 1/n); one recursion
  parameterized by the schedule covers both.
* :mod:`repro.core.proxy_regret` — the bandit (proxy) regret estimators of
  Eqs. (3-2)–(3-6): the O(H^2)-per-stage recursive form (Algorithm 2) every
  learner runs, and the literal Algorithm 1 history sums kept as its
  reference oracle, proven equivalent in the tests.
* :mod:`repro.core.probability` — the play-probability update
  ``p(k) = (1-delta) * min(Q(j,k)/mu, 1/(m-1)) + delta/m``.
* :mod:`repro.core.r2hs` — :class:`R2HSLearner`, the scalar learner of both
  ``rths`` and ``r2hs`` (one constant step), and
  :func:`regret_matching_learner` (uniform-average ancestor).
* :mod:`repro.core.population` — vectorized population of R2HS learners for
  large-scale runs (paper Fig. 1), with one constant step.
* :mod:`repro.core.sparse_population` — sparse top-k variant of the
  population: exact ``(k, k)`` regret blocks plus an aggregated tail
  bucket, ``O(N k^2)`` memory for giant helper counts (``H >> 10^3``).
* :mod:`repro.core.equilibrium` — correlated-equilibrium machinery: the CE
  inequality (Eq. 3-1) on empirical play, and an exact CE linear program
  for small tabular games.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.schedules": ["constant_step", "harmonic_step"],
    "repro.core.proxy_regret": ["ExactProxyRegret", "RecursiveProxyRegret"],
    "repro.core.probability": ["update_play_probabilities"],
    "repro.core.r2hs": ["R2HSLearner", "regret_matching_learner"],
    "repro.core.population": ["LearnerPopulation"],
    "repro.core.sparse_population": ["TopKPopulation"],
    "repro.core.equilibrium": [
        "empirical_ce_regret",
        "empirical_ce_regret_report",
        "CERegretReport",
        "is_epsilon_correlated_equilibrium",
        "solve_ce_lp",
    ],
    "repro.core.diagnostics": [
        "sliding_ce_regret", "strategy_entropy", "switching_statistics",
    ],
})
