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

from repro.mdp.markov_chain import (
    BatchMarkovChains,
    MarkovChain,
    birth_death_chain,
    birth_death_transition,
)
from repro.mdp.occupation_lp import (
    CentralizedMDPSolution,
    decomposed_optimum,
    solve_occupation_lp,
)
from repro.mdp.symmetric import (
    SymmetricOptimum,
    optimal_assignment_for_state,
    optimal_welfare_for_state,
    optimal_welfare_series,
    solve_symmetric_optimum,
)

__all__ = [
    "MarkovChain",
    "BatchMarkovChains",
    "birth_death_chain",
    "birth_death_transition",
    "CentralizedMDPSolution",
    "solve_occupation_lp",
    "decomposed_optimum",
    "SymmetricOptimum",
    "optimal_assignment_for_state",
    "optimal_welfare_for_state",
    "optimal_welfare_series",
    "solve_symmetric_optimum",
]
