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
* :mod:`repro.mdp.value_iteration` — a generic finite MDP value-iteration
  solver used to cross-check the LP on small instances.
"""

from repro.mdp.cooperative import build_cooperative_mdp
from repro.mdp.markov_chain import (
    BatchMarkovChains,
    MarkovChain,
    birth_death_chain,
    birth_death_transition,
    lazy_uniform_chain,
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
from repro.mdp.value_iteration import (
    FiniteMDP,
    relative_value_iteration,
    value_iteration,
)

__all__ = [
    "MarkovChain",
    "BatchMarkovChains",
    "birth_death_chain",
    "birth_death_transition",
    "lazy_uniform_chain",
    "CentralizedMDPSolution",
    "solve_occupation_lp",
    "decomposed_optimum",
    "SymmetricOptimum",
    "optimal_assignment_for_state",
    "optimal_welfare_for_state",
    "optimal_welfare_series",
    "solve_symmetric_optimum",
    "FiniteMDP",
    "value_iteration",
    "relative_value_iteration",
    "build_cooperative_mdp",
]
