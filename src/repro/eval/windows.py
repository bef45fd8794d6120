"""Windowed reductions over per-round series.

The prequential evaluator reports metrics per *window* — contiguous
blocks of ``window`` rounds — so a learner's transient and steady-state
behaviour stay visible in one table instead of being averaged together.
The helpers here are the single implementation of that blocking: windows
tile the horizon from round 0, and the last window is **partial** when
``window`` does not divide the horizon (it covers the remaining rounds,
however few — a 250-round run at window 100 yields windows of 100, 100
and 50 rounds).  ``window >= horizon`` degenerates to one window spanning
the whole run.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require_positive_int


def window_starts(horizon: int, window: int) -> np.ndarray:
    """Start index of every window tiling ``horizon`` rounds.

    ``[0, window, 2*window, ...]`` — the last window may be partial.
    """
    require_positive_int(horizon, "horizon")
    require_positive_int(window, "window")
    return np.arange(0, horizon, window, dtype=int)


def window_lengths(horizon: int, window: int) -> np.ndarray:
    """Round count of every window (the last entry may be < ``window``)."""
    starts = window_starts(horizon, window)
    ends = np.minimum(starts + window, horizon)
    return ends - starts


def window_sums(series: np.ndarray, window: int) -> np.ndarray:
    """Per-window sums of a ``(T,)`` series (last window partial).

    One value per window, in order; uses :func:`numpy.add.reduceat`, so
    the reduction is a single vectorized pass.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("series must be a non-empty 1-D array")
    starts = window_starts(arr.size, window)
    return np.add.reduceat(arr, starts)


def window_ratios(
    numerator: np.ndarray, denominator: np.ndarray, window: int
) -> np.ndarray:
    """Per-window ``sum(numerator) / sum(denominator)`` ratios.

    The ratio-of-sums (not mean-of-ratios) form every prequential rate in
    :mod:`repro.eval.metrics` uses: each round contributes weighted by
    its denominator (peers online, demand issued), so empty rounds cannot
    skew a window.  Windows whose denominator sums to zero report 0.0.
    """
    num = window_sums(numerator, window)
    den = window_sums(denominator, window)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out
