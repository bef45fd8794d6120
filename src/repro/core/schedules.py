"""Step-size schedules for the regret recursions.

The regret estimate is maintained as the stochastic-approximation recursion

    S^n = (1 - eps_n) * S^{n-1} + eps_n * increment_n

(cf. paper Sec. II and refs. [7][8]).  The schedule ``eps_n`` determines the
algorithm's memory:

* constant ``eps`` — exponential recency weighting; this is **regret
  tracking**, the paper's choice for non-stationary helper bandwidth.  The
  weight of the stage-``tau`` increment in ``S^n`` is exactly the paper's
  ``eps * (1 - eps)^{n - tau}``.
* ``eps_n = 1/n`` — uniform averaging over all history; this recovers
  classic **regret matching** (Hart & Mas-Colell), rigid under drift.

A schedule is a callable mapping the 1-based stage index ``n`` to a step in
``(0, 1]``.  Only the scalar proxy-regret estimators
(:mod:`repro.core.proxy_regret`) take one, and they accept any such
callable; :class:`~repro.core.r2hs.R2HSLearner`, the vectorized
populations and the banks take the constant ``epsilon`` itself.  The
factories below return small callable *objects* rather than closures so
schedules pickle — learner state crosses process boundaries in
spawn-method sweeps.
"""

from __future__ import annotations

from typing import Callable

from repro.util.validation import require_in_closed_unit_interval

StepSchedule = Callable[[int], float]


class _ConstantStep:
    """Constant ``eps_n = eps`` (picklable callable)."""

    __slots__ = ("eps",)

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def __call__(self, n: int) -> float:
        return self.eps

    @property
    def __name__(self) -> str:
        return f"constant_step({self.eps})"

    def __repr__(self) -> str:
        return self.__name__


class _HarmonicStep:
    """``eps_n = 1/n`` (picklable callable)."""

    __slots__ = ()
    __name__ = "harmonic_step"

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"stage index must be >= 1, got {n}")
        return 1.0 / n

    def __repr__(self) -> str:
        return self.__name__


def constant_step(eps: float) -> StepSchedule:
    """Constant step size: regret *tracking* (the paper's RTHS/R2HS)."""
    eps = require_in_closed_unit_interval(eps, "eps")
    if eps == 0:
        raise ValueError("eps must be strictly positive")
    return _ConstantStep(eps)


def harmonic_step() -> StepSchedule:
    """``eps_n = 1/n``: uniform averaging, i.e. classic regret matching."""
    return _HarmonicStep()
