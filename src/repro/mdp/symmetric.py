"""Exact cooperative optimum exploiting peer exchangeability.

The verbatim occupation LP enumerates ``H^N`` assignments — hopeless for the
paper's scenarios (N in the tens to hundreds).  But peers are exchangeable:
welfare depends on the assignment only through the *load vector*
``(n_1..n_H)``, so the per-state optimization reduces to a search over
occupied-helper subsets (and, with connection costs, over how many peers pay
which cost).  With the paper's pure even-split utility the per-state optimum
is simply the total capacity of the ``min(N, H)`` best helpers.

This module provides that reduction plus a canonical *fair* optimal
assignment (water-filling over the occupied helpers), which is what the
Fig. 2 benchmark uses as the MDP reference line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.mdp.markov_chain import MarkovChain

StateVector = Tuple[int, ...]


def optimal_welfare_for_state(
    capacities: Sequence[float],
    num_peers: int,
    connection_costs: Optional[Sequence[float]] = None,
) -> float:
    """Maximum social welfare achievable in one stage.

    With zero costs: sum of the ``min(N, H)`` largest capacities (occupying
    a helper contributes its full capacity regardless of how many peers
    share it).  With per-connection costs ``c_j``, occupying helper ``j``
    with one peer contributes ``C_j - c_j`` and every extra peer costs a
    further ``c_j``, so the optimum occupies helpers with positive margin
    (at most ``N``) and parks surplus peers on the cheapest occupied helper.
    """
    caps = np.asarray(capacities, dtype=float)
    if caps.ndim != 1 or caps.size == 0:
        raise ValueError("capacities must be non-empty and 1-D")
    if num_peers < 1:
        raise ValueError("num_peers must be >= 1")
    h = caps.size
    if connection_costs is None:
        costs = np.zeros(h)
    else:
        costs = np.asarray(connection_costs, dtype=float)
        if costs.shape != caps.shape:
            raise ValueError("connection_costs must match capacities")

    if np.all(costs == 0):
        top = np.sort(caps)[::-1][: min(num_peers, h)]
        return float(top.sum())

    # Margins of occupying each helper with exactly one peer.
    margins = caps - costs
    order = np.argsort(margins)[::-1]
    best = -np.inf
    # Try occupying the best m helpers for each feasible m; surplus peers go
    # to the occupied helper with the smallest per-peer cost.
    for m in range(1, min(num_peers, h) + 1):
        chosen = order[:m]
        base = margins[chosen].sum()
        surplus = num_peers - m
        total = base - surplus * costs[chosen].min()
        best = max(best, float(total))
    return best


def optimal_assignment_for_state(
    capacities: Sequence[float],
    num_peers: int,
    connection_costs: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """A welfare-optimal *and* fair load vector for one stage.

    Among welfare-optimal allocations (all allocations occupying the right
    helper set are welfare-equal under even splitting, costs aside) this
    picks the water-filling one: each successive peer joins the occupied
    helper offering the highest marginal rate, maximizing the minimum
    per-peer rate.  With connection costs the surplus peers may only join
    the cheapest occupied helpers, since any other placement pays more.
    Returns the load vector ``(n_1..n_H)``.
    """
    caps = np.asarray(capacities, dtype=float)
    h = caps.size
    if num_peers < 1:
        raise ValueError("num_peers must be >= 1")
    if connection_costs is None:
        costs = np.zeros(h)
    else:
        costs = np.asarray(connection_costs, dtype=float)

    # Choose the occupied set exactly as optimal_welfare_for_state does.
    if np.all(costs == 0):
        occupied = np.argsort(caps)[::-1][: min(num_peers, h)]
    else:
        margins = caps - costs
        order = np.argsort(margins)[::-1]
        best_value, best_m = -np.inf, 1
        for m in range(1, min(num_peers, h) + 1):
            chosen = order[:m]
            total = margins[chosen].sum() - (num_peers - m) * costs[chosen].min()
            if total > best_value:
                best_value, best_m = float(total), m
        occupied = order[:best_m]

    loads = np.zeros(h, dtype=int)
    loads[occupied] = 1
    remaining = num_peers - occupied.size
    # Every surplus peer pays its helper's cost, so only the cheapest
    # occupied helpers may take one (all of them when costs are zero).
    cheapest = occupied[costs[occupied] == costs[occupied].min()]
    for _ in range(remaining):
        # Water-filling: add the next peer where the post-join rate is best.
        rates = np.full(h, -np.inf)
        rates[cheapest] = caps[cheapest] / (loads[cheapest] + 1)
        j = int(np.argmax(rates))
        loads[j] += 1
    return loads


@dataclass(frozen=True)
class SymmetricOptimum:
    """Expected cooperative optimum over the joint helper-state space."""

    value: float
    per_state_value: Dict[StateVector, float]
    per_state_loads: Dict[StateVector, np.ndarray]
    stationary: Dict[StateVector, float]


def solve_symmetric_optimum(
    chains: Sequence[MarkovChain],
    num_peers: int,
    connection_costs: Optional[Sequence[float]] = None,
    state_limit: int = 200000,
) -> SymmetricOptimum:
    """``sum_y pi(y) * W*(y)`` with the per-state optimum in closed form.

    Exact for any ``N``; joint state space must stay under ``state_limit``
    (3 bandwidth levels and H <= 10 helpers is 59049 states).  Accepts a
    sequence of scalar chains or a
    :class:`~repro.mdp.markov_chain.BatchMarkovChains` bank (the
    vectorized capacity engine's representation).
    """
    from repro.mdp.markov_chain import BatchMarkovChains

    if isinstance(chains, BatchMarkovChains):
        chains = chains.to_chains()
    if not chains:
        raise ValueError("need at least one helper chain")
    if num_peers < 1:
        raise ValueError("num_peers must be >= 1")
    num_helpers = len(chains)
    states = list(itertools.product(*[range(c.num_states) for c in chains]))
    if len(states) > state_limit:
        raise ValueError(f"joint state space has {len(states)} states, too large")
    pis = [c.stationary_distribution() for c in chains]
    per_state_value: Dict[StateVector, float] = {}
    per_state_loads: Dict[StateVector, np.ndarray] = {}
    stationary: Dict[StateVector, float] = {}
    value = 0.0
    for y in states:
        pi_y = float(np.prod([pis[j][y[j]] for j in range(num_helpers)]))
        caps = np.array([chains[j].states[y[j]] for j in range(num_helpers)])
        w = optimal_welfare_for_state(caps, num_peers, connection_costs)
        per_state_value[y] = w
        per_state_loads[y] = optimal_assignment_for_state(
            caps, num_peers, connection_costs
        )
        stationary[y] = pi_y
        value += pi_y * w
    return SymmetricOptimum(
        value=value,
        per_state_value=per_state_value,
        per_state_loads=per_state_loads,
        stationary=stationary,
    )


def optimal_welfare_series(
    capacity_series: np.ndarray,
    num_peers: int,
    connection_costs: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Per-stage cooperative optimum along a realized capacity path.

    ``capacity_series`` has shape ``(T, H)``; the result ``(T,)`` is the
    upper envelope the Fig. 2 benchmark plots RTHS welfare against.
    """
    series = np.asarray(capacity_series, dtype=float)
    if series.ndim != 2:
        raise ValueError("capacity_series must have shape (T, H)")
    return np.array(
        [
            optimal_welfare_for_state(series[t], num_peers, connection_costs)
            for t in range(series.shape[0])
        ]
    )
