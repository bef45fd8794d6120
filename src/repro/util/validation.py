"""Argument-validation helpers shared across the library.

These raise early, with messages that name the offending parameter, so that
mis-configured experiments fail at construction rather than deep inside a
simulation loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_PROB_ATOL = 1e-9


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def _require_int(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def require_positive_int(value: int, name: str) -> int:
    """Return ``value`` if a strictly positive integer, else raise."""
    _require_int(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def require_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` as an ``int`` if a non-negative integer, else raise."""
    _require_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def require_bool(value: bool, name: str) -> bool:
    """Return ``value`` if a ``bool``, else raise ``TypeError``.

    Truthiness is not enough: the string ``"false"`` is truthy.
    """
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {value!r}")
    return value


def require_in_closed_unit_interval(value: float, name: str) -> float:
    """Return ``value`` if in ``[0, 1]``, else raise ``ValueError``."""
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def require_probability_vector(vec: Sequence[float], name: str) -> np.ndarray:
    """Validate and return ``vec`` as a 1-D probability vector.

    Entries must be non-negative and sum to 1 within a small tolerance; the
    returned array is renormalized exactly.
    """
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if np.any(~np.isfinite(arr)) or np.any(arr < -_PROB_ATOL):
        raise ValueError(f"{name} must have finite non-negative entries, got {arr!r}")
    total = arr.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1 (got sum={total!r})")
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum()


def require_square_matrix(mat: Sequence[Sequence[float]], name: str) -> np.ndarray:
    """Validate and return ``mat`` as a square 2-D float array."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def require_stochastic_matrix(mat: Sequence[Sequence[float]], name: str) -> np.ndarray:
    """Validate and return ``mat`` as a row-stochastic square matrix."""
    arr = require_square_matrix(mat, name)
    if np.any(arr < -_PROB_ATOL):
        raise ValueError(f"{name} must have non-negative entries")
    rows = arr.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-6):
        raise ValueError(f"{name} rows must each sum to 1, got row sums {rows!r}")
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum(axis=1, keepdims=True)


def normalized_channel_weights(
    num_channels: int, popularity: Optional[Sequence[float]]
) -> np.ndarray:
    """Validate and normalize channel popularity weights.

    ``None`` means uniform.  The spec validates ``channel_popularity``
    with it, and both streaming systems draw channels from its result.
    """
    weights = popularity
    if weights is None:
        weights = [1.0] * num_channels
    weights = np.asarray(list(weights), dtype=float)
    if weights.size != num_channels or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(
            "channel_popularity must be one non-negative weight per channel "
            "with a positive sum"
        )
    return weights / weights.sum()
