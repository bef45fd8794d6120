"""Reproducible random-number-generator plumbing.

The repository convention is:

* public constructors accept ``rng`` as either ``None``, an integer seed, or
  an existing :class:`numpy.random.Generator`;
* components never call :func:`numpy.random.default_rng` implicitly at use
  time — all randomness is bound at construction, so an experiment is fully
  determined by the seeds passed at the top;
* sub-components receive *spawned* children so that adding a new consumer of
  randomness does not perturb the streams of existing ones.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

Seedish = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(rng: Seedish = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS-entropy generator), an ``int`` seed, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be None, int, SeedSequence or numpy Generator, got {type(rng)!r}"
    )


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive one statistically independent child generator from ``rng``."""
    return spawn_many(rng, 1)[0]


def spawn_many(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are seeded from the parent's bit stream, so the parent's state
    advances; repeated calls yield fresh, non-overlapping streams.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(rng: np.random.Generator) -> Optional[int]:
    """Draw a fresh 63-bit integer seed from ``rng``."""
    return int(rng.integers(0, 2**63 - 1))
