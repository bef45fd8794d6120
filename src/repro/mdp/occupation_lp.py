"""The centralized MDP benchmark as an occupation-measure LP (paper Sec. IV-A).

The cooperative problem: a single controller (the streaming server) observes
the helper-state vector ``y`` (each helper's bandwidth level, an independent
ergodic Markov chain) and assigns every peer a helper, i.e. picks
``x = (x_1..x_N)``.  Over randomized stationary policies ``s(x|y)`` the
average social welfare is linear in the *global occupation measure*

    rho(y, x) = pi(y) * s(x|y),        pi(y) = prod_j pi_j(y_j)

giving the LP (paper Sec. IV-A):

    max_rho  sum_{y,x} u(y, x) rho(y, x)
    s.t.     sum_x rho(y, x) = pi(y)          for every y
             rho >= 0
             (sum_{y,x} rho(y,x) = 1 is implied)

Because the helper chains are uncontrolled, the LP decomposes per state and
the optimum is attained by a deterministic policy; we still build and solve
the full LP with ``scipy.optimize.linprog`` (it *is* the paper's benchmark),
and cross-check against the decomposed argmax and the symmetric closed form
in the tests.  Profile spaces grow as ``H^N * prod|Y_j|``, so the verbatim
LP is for small instances; :mod:`repro.mdp.symmetric` handles the paper's
larger scenarios by exploiting peer exchangeability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mdp.markov_chain import MarkovChain

StateVector = Tuple[int, ...]
Assignment = Tuple[int, ...]
WelfareFunction = Callable[[np.ndarray, Assignment], float]


def even_split_welfare(capacities: np.ndarray, assignment: Assignment) -> float:
    """Social welfare under even splitting: total capacity of occupied helpers."""
    loads = np.bincount(np.asarray(assignment), minlength=capacities.size)
    return float(capacities[loads > 0].sum())


@dataclass(frozen=True)
class CentralizedMDPSolution:
    """Solution of the cooperative occupation-measure LP.

    Attributes
    ----------
    value:
        Optimal expected per-stage social welfare.
    policy:
        Mapping helper-state vector -> (assignment -> probability).  Only
        states with positive stationary mass appear.
    stationary:
        Mapping helper-state vector -> stationary probability pi(y).
    per_state_value:
        Mapping helper-state vector -> conditional optimal welfare.
    """

    value: float
    policy: Dict[StateVector, Dict[Assignment, float]]
    stationary: Dict[StateVector, float]
    per_state_value: Dict[StateVector, float]

    def assignment_for(self, state: StateVector) -> Assignment:
        """Most probable assignment under the policy at ``state``."""
        options = self.policy.get(tuple(state))
        if not options:
            raise KeyError(f"no policy entry for state {state}")
        return max(options.items(), key=lambda kv: kv[1])[0]


def solve_occupation_lp(
    chains: Sequence[MarkovChain],
    num_peers: int,
    welfare: Optional[WelfareFunction] = None,
    state_limit: int = 2000,
    assignment_limit: int = 5000,
) -> CentralizedMDPSolution:
    """Build and solve the Sec. IV-A LP exactly.

    Parameters
    ----------
    chains:
        One ergodic Markov chain per helper; ``chains[j].states`` are that
        helper's bandwidth levels.
    num_peers:
        Number of peers ``N`` to assign each stage.
    welfare:
        ``welfare(capacities, assignment) -> float``; defaults to the even
        split welfare of the paper's utility.
    state_limit, assignment_limit:
        Guards on the enumerated joint spaces.

    scipy is imported on the first call, so the rest of the package runs
    on numpy alone.
    """
    from scipy.optimize import linprog

    if num_peers < 1:
        raise ValueError("num_peers must be >= 1")
    if not chains:
        raise ValueError("need at least one helper chain")
    welfare_fn = welfare if welfare is not None else even_split_welfare

    num_helpers = len(chains)
    state_spaces = [range(c.num_states) for c in chains]
    states: List[StateVector] = list(itertools.product(*state_spaces))
    if len(states) > state_limit:
        raise ValueError(
            f"joint helper-state space has {len(states)} entries, "
            f"over limit {state_limit}"
        )
    assignments: List[Assignment] = list(
        itertools.product(range(num_helpers), repeat=num_peers)
    )
    if len(assignments) > assignment_limit:
        raise ValueError(
            f"assignment space has {len(assignments)} entries, over limit "
            f"{assignment_limit}; use repro.mdp.symmetric for large N"
        )

    pis = [c.stationary_distribution() for c in chains]
    pi_of: Dict[StateVector, float] = {}
    for y in states:
        pi_of[y] = float(np.prod([pis[j][y[j]] for j in range(num_helpers)]))

    caps_of: Dict[StateVector, np.ndarray] = {
        y: np.array([chains[j].states[y[j]] for j in range(num_helpers)])
        for y in states
    }

    num_vars = len(states) * len(assignments)

    def var(yi: int, xi: int) -> int:
        return yi * len(assignments) + xi

    c = np.empty(num_vars)
    for yi, y in enumerate(states):
        caps = caps_of[y]
        for xi, x in enumerate(assignments):
            c[var(yi, xi)] = -welfare_fn(caps, x)  # linprog minimizes

    a_eq = np.zeros((len(states), num_vars))
    b_eq = np.empty(len(states))
    for yi, y in enumerate(states):
        a_eq[yi, var(yi, 0) : var(yi, len(assignments) - 1) + 1] = 1.0
        b_eq[yi] = pi_of[y]

    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"occupation LP failed: {result.message}")

    rho = np.clip(result.x, 0.0, None).reshape(len(states), len(assignments))
    policy: Dict[StateVector, Dict[Assignment, float]] = {}
    per_state_value: Dict[StateVector, float] = {}
    for yi, y in enumerate(states):
        mass = rho[yi].sum()
        if mass <= 1e-15:
            continue
        conditional = rho[yi] / mass
        entries = {
            assignments[xi]: float(conditional[xi])
            for xi in range(len(assignments))
            if conditional[xi] > 1e-12
        }
        policy[y] = entries
        caps = caps_of[y]
        per_state_value[y] = float(
            sum(prob * welfare_fn(caps, x) for x, prob in entries.items())
        )
    value = float(-result.fun)
    return CentralizedMDPSolution(
        value=value,
        policy=policy,
        stationary=pi_of,
        per_state_value=per_state_value,
    )


def decomposed_optimum(
    chains: Sequence[MarkovChain],
    num_peers: int,
    welfare: Optional[WelfareFunction] = None,
    state_limit: int = 200000,
    assignment_limit: int = 5000,
) -> float:
    """Per-state argmax shortcut: ``sum_y pi(y) max_x u(y, x)``.

    Valid because the helper chains are uncontrolled, so the LP decomposes;
    used to cross-check :func:`solve_occupation_lp` in the tests.
    """
    welfare_fn = welfare if welfare is not None else even_split_welfare
    num_helpers = len(chains)
    states = list(itertools.product(*[range(c.num_states) for c in chains]))
    if len(states) > state_limit:
        raise ValueError("state space too large")
    assignments = list(itertools.product(range(num_helpers), repeat=num_peers))
    if len(assignments) > assignment_limit:
        raise ValueError("assignment space too large; use repro.mdp.symmetric")
    pis = [c.stationary_distribution() for c in chains]
    total = 0.0
    for y in states:
        pi_y = float(np.prod([pis[j][y[j]] for j in range(num_helpers)]))
        caps = np.array([chains[j].states[y[j]] for j in range(num_helpers)])
        best = max(welfare_fn(caps, x) for x in assignments)
        total += pi_y * best
    return total
