"""Channel-popularity models.

Measurement studies of deployed multi-channel systems (PPLive/UUSee, paper
refs. [1][11]) consistently report Zipf-like channel popularity: a few hot
channels hold most viewers.  :func:`zipf_popularity` produces the weight
vector used to spread peers over channels.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import Seedish, as_generator
from repro.util.validation import require_positive, require_positive_int


def zipf_popularity(num_channels: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf weights ``w_c ∝ 1 / (c+1)^exponent``.

    ``exponent = 0`` gives uniform popularity; larger values concentrate
    viewers on the first channels.
    """
    require_positive_int(num_channels, "num_channels")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    ranks = np.arange(1, num_channels + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def popularity_drift(
    popularity: np.ndarray,
    rate: float,
    rng: Seedish = None,
) -> np.ndarray:
    """One step of random popularity drift (time-varying popularity).

    Mixes the current weights with a random re-weighting:
    ``w' = (1 - rate) * w + rate * dirichlet(1)``.
    """
    weights = np.asarray(popularity, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("popularity must be a non-empty 1-D vector")
    require_positive(rate, "rate")
    if rate > 1:
        raise ValueError("rate must be <= 1")
    gen = as_generator(rng)
    noise = gen.dirichlet(np.ones(weights.size))
    mixed = (1.0 - rate) * (weights / weights.sum()) + rate * noise
    return mixed / mixed.sum()
