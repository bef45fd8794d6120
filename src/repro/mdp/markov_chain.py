"""Finite ergodic Markov chains.

The paper models each helper's available upload bandwidth as an independent
ergodic finite Markov chain over the levels ``[700, 800, 900]`` that switches
"according to a slowly changing random process" (Sec. IV).  This module
provides the chain abstraction plus the canned constructor the experiments
use, :func:`birth_death_chain`: nearest-neighbour transitions with a large
self-loop probability (the "slowly changing" process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.util.rng import Seedish, as_generator, spawn_many
from repro.util.validation import (
    require_in_closed_unit_interval,
    require_probability_vector,
    require_stochastic_matrix,
)


@dataclass
class MarkovChain:
    """A finite, time-homogeneous Markov chain.

    Parameters
    ----------
    transition:
        Row-stochastic ``S x S`` transition matrix ``P[s, s']``.
    states:
        Optional per-state labels/values (e.g. bandwidth levels in kbit/s).
        Defaults to ``0..S-1``.
    rng:
        Seed or generator driving the sample path.
    initial:
        Optional distribution over the initial state; defaults to the
        stationary distribution, so sample paths start in steady state as
        assumed by the occupation-measure LP.
    """

    transition: np.ndarray
    states: Optional[np.ndarray] = None
    rng: Seedish = None
    initial: Optional[Sequence[float]] = None
    _state: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self.transition = require_stochastic_matrix(self.transition, "transition")
        n = self.transition.shape[0]
        if self.states is None:
            self.states = np.arange(n, dtype=float)
        else:
            self.states = np.asarray(self.states, dtype=float)
            if self.states.shape != (n,):
                raise ValueError(
                    f"states must have length {n}, got shape {self.states.shape}"
                )
        self.rng = as_generator(self.rng)
        if self.initial is None:
            init = self.stationary_distribution()
        else:
            init = require_probability_vector(self.initial, "initial")
            if init.size != n:
                raise ValueError(f"initial must have length {n}")
        self._state = int(self.rng.choice(n, p=init))

    @property
    def num_states(self) -> int:
        """Number of states ``S``."""
        return self.transition.shape[0]

    @property
    def state_index(self) -> int:
        """Current state index in ``0..S-1``."""
        return self._state

    @property
    def state_value(self) -> float:
        """Label/value of the current state."""
        return float(self.states[self._state])

    def step(self) -> int:
        """Advance one step; return the new state index."""
        self._state = int(
            self.rng.choice(self.num_states, p=self.transition[self._state])
        )
        return self._state

    def sample_path(self, length: int) -> np.ndarray:
        """Advance ``length`` steps and return the visited state indices."""
        if length < 0:
            raise ValueError("length must be >= 0")
        path = np.empty(length, dtype=int)
        for t in range(length):
            path[t] = self.step()
        return path

    def set_state(self, index: int) -> None:
        """Force the chain into state ``index`` (used by tests/scenarios)."""
        if not 0 <= index < self.num_states:
            raise ValueError(f"state index {index} out of range 0..{self.num_states - 1}")
        self._state = int(index)

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution ``pi`` with ``pi P = pi``.

        Computed from the eigenvector of ``P^T`` at eigenvalue 1; raises
        :class:`ValueError` if the chain is not ergodic enough for a unique
        strictly positive solution (up to numerical tolerance).
        """
        return stationary_distribution(self.transition)

    def expected_state_value(self) -> float:
        """Stationary expectation of the state value ``E_pi[states]``."""
        return float(self.stationary_distribution() @ self.states)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solves ``pi (P - I) = 0`` with the normalization ``sum(pi) = 1`` via a
    least-squares system, then validates uniqueness by checking the
    eigenvalue-1 multiplicity.
    """
    p = require_stochastic_matrix(transition, "transition")
    n = p.shape[0]
    # pi solves A^T pi = b with A = [P^T - I; 1^T].
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.any(pi < -1e-8):
        raise ValueError("transition matrix has no non-negative stationary vector; "
                         "is the chain ergodic?")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0 or abs(total - 1.0) > 1e-6:
        raise ValueError("failed to normalize stationary distribution")
    resid = np.linalg.norm(pi @ p - pi, ord=1)
    if resid > 1e-6:
        raise ValueError(f"stationary residual too large ({resid}); chain may be periodic")
    return pi / total


def birth_death_transition(
    num_states: int, stay_probability: float
) -> np.ndarray:
    """The nearest-neighbour transition matrix behind :func:`birth_death_chain`."""
    if num_states < 2:
        raise ValueError("need at least two states")
    stay = require_in_closed_unit_interval(stay_probability, "stay_probability")
    n = int(num_states)
    move = 1.0 - stay
    p = np.zeros((n, n))
    for s in range(n):
        p[s, s] = stay
        if s == 0:
            p[s, 1] += move
        elif s == n - 1:
            p[s, n - 2] += move
        else:
            p[s, s - 1] += move / 2
            p[s, s + 1] += move / 2
    return p


def birth_death_chain(
    levels: Sequence[float],
    stay_probability: float = 0.9,
    rng: Seedish = None,
    initial: Optional[Sequence[float]] = None,
) -> MarkovChain:
    """Slowly-switching nearest-neighbour chain over ``levels``.

    With probability ``stay_probability`` the chain keeps its level; the
    remaining mass moves to adjacent levels (split evenly for interior
    states, all of it for boundary states).  With the default 0.9 this is
    the "slowly changing random process" over ``[700, 800, 900]`` of the
    paper's evaluation.
    """
    values = np.asarray(levels, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("levels must be a 1-D sequence of at least two values")
    p = birth_death_transition(values.size, stay_probability)
    return MarkovChain(transition=p, states=values, rng=rng, initial=initial)


class BatchMarkovChains:
    """``H`` independent finite Markov chains advanced in lock-step.

    The scalar :class:`MarkovChain` is one Python object per chain; stepping
    ``H`` of them costs ``H`` ``rng.choice`` calls per stage, which dominates
    environment advancement once ``H`` reaches the thousands.  This class
    keeps the whole bank in arrays:

    * ``state`` — ``(H,)`` current state indices,
    * ``group`` — ``(H,)`` index into a small set of *chain groups*; chains
      in a group share a transition matrix and level values (the paper's
      environment is one group; the heterogeneous scenario is two),
    * per-group transition matrices ``(G, S, S)`` with precomputed
      cumulative rows, so one stage is a single ``rng.random(H)`` draw plus
      an inverse-CDF lookup — no per-chain Python.

    The sample paths are exact: each chain follows its own transition law,
    and chains are independent because each consumes its own uniform per
    stage.  Only the RNG *stream layout* differs from a bank of scalar
    chains (one shared generator here, one child generator each there), so
    agreement with scalar banks is distributional — pinned by the
    stationary-occupancy and switching-rate tests.

    Parameters
    ----------
    transitions:
        ``(S, S)`` matrix shared by every chain, or ``(G, S, S)`` stacked
        per-group matrices (each row-stochastic).
    values:
        Per-state labels/values: ``(S,)`` shared, or ``(G, S)`` per group.
    num_chains:
        Number of chains ``H`` when ``groups`` is omitted.
    groups:
        Optional ``(H,)`` group index per chain; required when
        ``transitions`` is 3-D with ``G > 1``.
    rng:
        One generator drives the whole bank.
    initial_states:
        Optional ``(H,)`` explicit starting states; defaults to one draw
        per chain from its group's stationary distribution (matching the
        scalar chain's steady-state start).
    """

    def __init__(
        self,
        transitions: np.ndarray,
        values: np.ndarray,
        num_chains: Optional[int] = None,
        groups: Optional[Sequence[int]] = None,
        rng: Seedish = None,
        initial_states: Optional[Sequence[int]] = None,
    ) -> None:
        p = np.asarray(transitions, dtype=float)
        if p.ndim == 2:
            p = p[None]
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise ValueError("transitions must be (S, S) or (G, S, S)")
        for g in range(p.shape[0]):
            require_stochastic_matrix(p[g], f"transitions[{g}]")
        num_groups, num_states = p.shape[0], p.shape[1]

        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1 and vals.shape == (num_states,):
            vals = np.broadcast_to(vals, (num_groups, num_states)).copy()
        if vals.shape != (num_groups, num_states):
            raise ValueError(
                f"values must be ({num_states},) or {(num_groups, num_states)}, "
                f"got shape {vals.shape}"
            )

        if groups is None:
            if num_groups != 1:
                raise ValueError("groups is required with more than one group")
            if num_chains is None:
                raise ValueError("pass num_chains (or groups)")
            if num_chains < 1:
                raise ValueError("num_chains must be >= 1")
            group = np.zeros(int(num_chains), dtype=np.intp)
        else:
            group = np.asarray(groups, dtype=np.intp)
            if group.ndim != 1 or group.size == 0:
                raise ValueError("groups must be a non-empty 1-D sequence")
            if group.min() < 0 or group.max() >= num_groups:
                raise ValueError("group index out of range")
            if num_chains is not None and num_chains != group.size:
                raise ValueError("num_chains disagrees with len(groups)")

        self._p = p
        self._cum = np.cumsum(p, axis=2)
        self._cum[:, :, -1] = 1.0  # guard fp drift in the last column
        self._values = vals
        self._group = group
        self._h = int(group.size)
        self._s = int(num_states)
        self._rng = as_generator(rng)
        self._stationary = np.stack(
            [stationary_distribution(p[g]) for g in range(num_groups)]
        )
        if initial_states is None:
            init_cum = np.cumsum(self._stationary, axis=1)[group]
            init_cum[:, -1] = 1.0
            self._state = self._inverse_cdf(init_cum, self._rng.random(self._h))
        else:
            state = np.asarray(initial_states, dtype=np.intp)
            if state.shape != (self._h,):
                raise ValueError(f"initial_states must have shape ({self._h},)")
            if state.min() < 0 or state.max() >= self._s:
                raise ValueError("initial state index out of range")
            self._state = state.copy()

    @staticmethod
    def _inverse_cdf(cum_rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Per-row inverse CDF: first index where ``cum >= draw``."""
        idx = (cum_rows < draws[:, None]).sum(axis=1)
        return np.minimum(idx, cum_rows.shape[1] - 1)

    @property
    def num_chains(self) -> int:
        """Number of chains ``H``."""
        return self._h

    @property
    def num_states(self) -> int:
        """States per chain ``S``."""
        return self._s

    @property
    def num_groups(self) -> int:
        """Number of distinct chain groups ``G``."""
        return self._p.shape[0]

    @property
    def state_indices(self) -> np.ndarray:
        """Current state indices, shape ``(H,)`` (copy)."""
        return self._state.copy()

    @property
    def groups(self) -> np.ndarray:
        """Group index of each chain, shape ``(H,)`` (copy)."""
        return self._group.copy()

    def state_values(self) -> np.ndarray:
        """Current per-chain state values, shape ``(H,)``."""
        return self._values[self._group, self._state]

    def set_states(self, indices: Sequence[int]) -> None:
        """Force all chains into the given states (tests/scenarios)."""
        state = np.asarray(indices, dtype=np.intp)
        if state.shape != (self._h,):
            raise ValueError(f"indices must have shape ({self._h},)")
        if state.size and (state.min() < 0 or state.max() >= self._s):
            raise ValueError("state index out of range")
        self._state = state.copy()

    def step(self) -> np.ndarray:
        """Advance every chain one step; returns the new state indices."""
        rows = self._cum[self._group, self._state]
        self._state = self._inverse_cdf(rows, self._rng.random(self._h))
        return self._state

    def sample_value_paths(self, length: int) -> np.ndarray:
        """Record ``length`` stages of state values in one shot.

        Returns a ``(length, H)`` array whose row ``t`` holds the values
        *before* the ``t``-th step — i.e. row 0 is the current state and the
        bank ends ``length`` steps ahead, exactly the contract of
        :func:`repro.sim.bandwidth.record_capacity_trace`.  The uniforms are
        drawn as one ``(length, H)`` block, which consumes the generator in
        the same order as ``length`` separate :meth:`step` calls, so the
        fast path is stream-identical to the loop.
        """
        if length < 1:
            raise ValueError("length must be >= 1")
        draws = self._rng.random((length, self._h))
        out = np.empty((length, self._h))
        state = self._state
        for t in range(length):
            out[t] = self._values[self._group, state]
            state = self._inverse_cdf(self._cum[self._group, state], draws[t])
        self._state = state
        return out

    def stationary_distributions(self) -> np.ndarray:
        """Per-group stationary distributions, shape ``(G, S)`` (copy)."""
        return self._stationary.copy()

    def expected_state_values(self) -> np.ndarray:
        """Stationary expectation of each chain's value, shape ``(H,)``."""
        per_group = np.einsum("gs,gs->g", self._stationary, self._values)
        return per_group[self._group]

    def minimum_values(self) -> np.ndarray:
        """Lowest level of each chain, shape ``(H,)``."""
        return self._values.min(axis=1)[self._group]

    @classmethod
    def birth_death(
        cls,
        levels: Sequence[float],
        num_chains: int,
        stay_probability: float = 0.9,
        rng: Seedish = None,
        initial_states: Optional[Sequence[int]] = None,
    ) -> "BatchMarkovChains":
        """``num_chains`` independent copies of the paper's slow chain.

        The batch analogue of building ``num_chains`` separate
        :func:`birth_death_chain` objects.
        """
        values = np.asarray(levels, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("levels must be a 1-D sequence of at least two values")
        transition = birth_death_transition(values.size, stay_probability)
        return cls(
            transition,
            values,
            num_chains=num_chains,
            rng=rng,
            initial_states=initial_states,
        )

    def to_chains(self, rng: Seedish = None) -> list:
        """Materialize scalar :class:`MarkovChain` views of every chain.

        Each returned chain carries its group's transition matrix and
        values and starts in the batch's *current* state.  Use for analysis
        code written against scalar chains (e.g. the symmetric-optimum
        solver); the returned chains get fresh child generators from
        ``rng``, so stepping them does not touch the batch stream.
        """
        parent = as_generator(rng)
        children = spawn_many(parent, self._h)
        chains = []
        for i, child in enumerate(children):
            g = int(self._group[i])
            chain = MarkovChain(
                transition=self._p[g].copy(),
                states=self._values[g].copy(),
                rng=child,
            )
            chain.set_state(int(self._state[i]))
            chains.append(chain)
        return chains
