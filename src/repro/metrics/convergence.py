"""Regret trajectories and convergence detection (paper Fig. 1).

Fig. 1 plots the evolution of the *worst player's* regret; with regret
tracking the estimate never reaches exactly zero (constant step size keeps
responding to the newest utilities) but settles onto a small noise floor.
:func:`convergence_stage` finds the stage where a series first enters and
stays inside a band around its terminal level.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centered-length moving average (trailing window, same length)."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be 1-D")
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1:
        return arr.copy()
    cumsum = np.cumsum(np.insert(arr, 0, 0.0))
    out = np.empty_like(arr)
    for t in range(arr.size):
        lo = max(0, t - window + 1)
        out[t] = (cumsum[t + 1] - cumsum[lo]) / (t + 1 - lo)
    return out


def convergence_stage(
    series: np.ndarray,
    tolerance: float,
    reference: Optional[float] = None,
) -> Optional[int]:
    """First stage after which the series stays within ``tolerance``.

    ``reference`` defaults to the final value; returns ``None`` if the
    series never settles.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("series must be non-empty 1-D")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    ref = float(arr[-1]) if reference is None else float(reference)
    outside = np.abs(arr - ref) > tolerance
    if not outside.any():
        return 0
    last_outside = int(np.flatnonzero(outside)[-1])
    if last_outside == arr.size - 1:
        return None
    return last_outside + 1


def time_averaged_regret_series(
    trajectory,
    sample_every: int = 1,
    u_max: Optional[float] = None,
) -> np.ndarray:
    """Worst-player time-averaged regret along a trajectory (Fig. 1).

    At each sampled stage ``t`` this is

        max_{i,j,k} (1/t) sum_{tau<=t, a_i^tau=j} [u_i(k, a_{-i}^tau) - u_i^tau]^+

    — the average regret Hart & Mas-Colell's theorem drives to zero as the
    empirical play approaches the correlated-equilibrium set.  Computed
    with true counterfactuals from the recorded loads/capacities, so it
    measures the play itself rather than any learner's internal estimate.

    Parameters
    ----------
    trajectory:
        A :class:`repro.game.repeated_game.Trajectory`.
    sample_every:
        Sampling stride of the returned series.
    u_max:
        Optional utility normalizer (use the learners' ``u_max`` to express
        the curve in normalized units).
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    t_total, n = trajectory.actions.shape
    h = trajectory.loads.shape[1]
    scale = 1.0 if u_max is None else float(u_max)
    if scale <= 0:
        raise ValueError("u_max must be positive")
    cum = np.zeros((n, h, h))
    peer_index = np.arange(n)
    samples: List[float] = []
    for t in range(t_total):
        caps = trajectory.capacities[t]
        loads = trajectory.loads[t]
        actions = trajectory.actions[t]
        realized = trajectory.utilities[t]
        deviation = caps / (loads + 1.0)
        diff = deviation[None, :] - realized[:, None]
        diff[peer_index, actions] = 0.0
        cum[peer_index, actions, :] += diff
        if (t + 1) % sample_every == 0:
            samples.append(
                float(np.clip(cum, 0.0, None).max(initial=0.0)) / ((t + 1) * scale)
            )
    return np.asarray(samples)
