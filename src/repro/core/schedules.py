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
* ``eps_n = c / n^rho`` with ``rho`` in (0.5, 1] — the usual
  stochastic-approximation middle ground.

A schedule is a callable mapping the 1-based stage index ``n`` to a step in
``(0, 1]``.  The factories below return small callable *objects* rather
than closures so schedules pickle — learner state crosses process
boundaries in spawn-method sweeps.
"""

from __future__ import annotations

from typing import Callable

from repro.util.validation import require_in_closed_unit_interval, require_positive

StepSchedule = Callable[[int], float]


class _ConstantStep:
    """Constant ``eps_n = eps`` (picklable callable)."""

    __slots__ = ("constant_value",)

    def __init__(self, eps: float) -> None:
        # ``constant_value`` is the marker vectorized consumers
        # (LearnerPopulation) read to skip per-slot schedule evaluation
        # in their hot loop.
        self.constant_value = eps

    def __call__(self, n: int) -> float:
        return self.constant_value

    @property
    def __name__(self) -> str:
        return f"constant_step({self.constant_value})"

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


class _PolynomialStep:
    """``eps_n = min(1, scale / n**exponent)`` (picklable callable)."""

    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float) -> None:
        self.exponent = exponent
        self.scale = scale

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"stage index must be >= 1, got {n}")
        return min(1.0, self.scale / float(n) ** self.exponent)

    @property
    def __name__(self) -> str:
        return f"polynomial_step({self.exponent}, {self.scale})"

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


def polynomial_step(exponent: float = 0.75, scale: float = 1.0) -> StepSchedule:
    """``eps_n = min(1, scale / n**exponent)`` — decaying but slower than 1/n."""
    require_positive(exponent, "exponent")
    require_positive(scale, "scale")
    return _PolynomialStep(exponent, scale)
