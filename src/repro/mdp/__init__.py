"""Markov-chain substrate and the centralized MDP benchmark (paper Sec. IV-A).

Contents
--------

* :mod:`repro.mdp.markov_chain` — finite ergodic Markov chains, stationary
  distributions, and the slow-switching birth–death chains that drive helper
  upload bandwidth in the paper's evaluation.
* :mod:`repro.mdp.occupation_lp` — the cooperative optimization of Sec. IV-A
  expressed as a linear program over global occupation measures
  ``rho(y, x)`` and solved exactly with :func:`scipy.optimize.linprog`
  (scipy is imported on the first solve, so the package needs only numpy).
* :mod:`repro.mdp.symmetric` — an exact, composition-based reformulation of
  the same optimum that exploits peer exchangeability, tractable for the
  large ``N`` used in the paper's figures.

The LP is the reference oracle: on small instances it must report the
same optimal average welfare as the closed form in :mod:`repro.mdp.symmetric`
(``tests/mdp/test_cross_check.py``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mdp.markov_chain": [
        "MarkovChain",
        "BatchMarkovChains",
        "birth_death_chain",
        "birth_death_transition",
    ],
    "repro.mdp.occupation_lp": [
        "CentralizedMDPSolution", "solve_occupation_lp", "decomposed_optimum",
    ],
    "repro.mdp.symmetric": [
        "SymmetricOptimum",
        "optimal_assignment_for_state",
        "optimal_welfare_for_state",
        "optimal_welfare_series",
        "solve_symmetric_optimum",
    ],
})
