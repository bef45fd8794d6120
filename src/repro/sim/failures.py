"""Helper failure injection.

Helpers are ordinary peers volunteering surplus bandwidth; they crash,
leave, or throttle without warning.  :class:`CorrelatedFailureProcess`
wraps any capacity process and knocks helpers out for random outages:

* helpers split into ``num_groups`` contiguous failure domains; each
  stage, every healthy domain fails as a unit with probability
  ``group_failure_rate``;
* a failed domain's capacities read 0 until it recovers;
* outage lengths are geometric with mean ``mean_outage_rounds``.

With one domain per helper (``num_groups`` equal to the helper count,
as the ``failures`` capacity transform builds it) every helper fails
independently.

Because a failed helper still *accepts* connections (peers discover the
outage only through a zero rate — bandit feedback, as everywhere in the
paper), failure injection exercises exactly the adaptation path RTHS is
designed for.  The failure ablation bench compares RTHS against a sticky
(fixed-overlay) population under increasing failure rates.
"""

from __future__ import annotations

import numpy as np

from repro.game.repeated_game import CapacityProcess
from repro.util.rng import Seedish, as_generator
from repro.util.validation import (
    require_in_closed_unit_interval,
    require_positive,
    require_positive_int,
)


class CorrelatedFailureProcess:
    """Whole failure domains going dark as a unit.

    Real helper fleets fail *together* — a rack loses power, an ISP
    region drops, a software push bricks one deployment cohort.
    Independent per-helper outages (one domain per helper) leave the
    learner plenty of healthy alternatives; correlated outages (fewer,
    larger domains) are the adversarial version: helpers split into
    ``num_groups`` contiguous domains, and each stage every healthy
    domain fails *as a whole* with probability ``group_failure_rate``,
    staying dark for a geometric outage (mean ``mean_outage_rounds``).
    A peer whose whole preferred neighborhood vanishes at once must
    re-explore from scratch — the regime where regret tracking should
    decisively beat sticking.

    Feedback stays bandit, as everywhere in the paper: a failed domain
    still accepts connections and simply reads 0.
    """

    def __init__(
        self,
        base: CapacityProcess,
        num_groups: int = 4,
        group_failure_rate: float = 0.02,
        mean_outage_rounds: float = 20.0,
        rng: Seedish = None,
    ) -> None:
        require_positive_int(num_groups, "num_groups")
        require_in_closed_unit_interval(group_failure_rate, "group_failure_rate")
        require_positive(mean_outage_rounds, "mean_outage_rounds")
        if num_groups > base.num_helpers:
            raise ValueError(
                f"num_groups={num_groups} exceeds the helper count "
                f"({base.num_helpers}); every domain needs a member"
            )
        self._base = base
        self._group_failure_rate = float(group_failure_rate)
        self._recovery_probability = 1.0 / float(mean_outage_rounds)
        self._rng = as_generator(rng)
        # Contiguous domains (np.array_split sizing): helpers j in
        # domain g share fate, modeling rack/region locality.
        self._groups = np.repeat(
            np.arange(num_groups),
            [len(part) for part in np.array_split(np.arange(base.num_helpers), num_groups)],
        )
        self._num_groups = int(num_groups)
        self._group_failed = np.zeros(num_groups, dtype=bool)
        self._outages_started = 0
        self._stages_failed = 0

    @property
    def num_helpers(self) -> int:
        """Helper count of the wrapped process."""
        return self._base.num_helpers

    @property
    def failed(self) -> np.ndarray:
        """Current per-helper outage mask (True = helper down)."""
        return self._group_failed[self._groups].copy()

    @property
    def failed_groups(self) -> np.ndarray:
        """Current per-domain outage mask."""
        return self._group_failed.copy()

    @property
    def outages_started(self) -> int:
        """Total domain-outage events injected so far."""
        return self._outages_started

    @property
    def failed_helper_stages(self) -> int:
        """Cumulative helper-stages spent in outage."""
        return self._stages_failed

    def capacities(self) -> np.ndarray:
        """Base capacities with failed domains zeroed."""
        caps = np.asarray(self._base.capacities(), dtype=float).copy()
        caps[self.failed] = 0.0
        return caps

    def minimum_capacities(self) -> np.ndarray:
        """Per-helper lower bound (zero whenever outages are possible)."""
        if self._group_failure_rate > 0:
            return np.zeros(self.num_helpers, dtype=float)
        return np.asarray(self._base.minimum_capacities(), dtype=float)

    def advance(self) -> None:
        """Advance the base process and the domain failure/recovery dynamics."""
        self._base.advance()
        self._stages_failed += int(self.failed.sum())
        draws = self._rng.random(self._num_groups)
        # Recoveries first (a domain cannot fail and recover in one stage).
        recovering = self._group_failed & (draws < self._recovery_probability)
        self._group_failed[recovering] = False
        fresh = (
            (~self._group_failed)
            & ~recovering
            & (draws < self._group_failure_rate)
        )
        self._outages_started += int(fresh.sum())
        self._group_failed[fresh] = True


def availability(process: CorrelatedFailureProcess, num_stages: int) -> float:
    """Empirical helper availability over ``num_stages`` advances.

    Advances the process; returns the fraction of helper-stages that were
    healthy.  Utility for calibrating failure parameters in experiments.
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    healthy = 0
    total = num_stages * process.num_helpers
    for _ in range(num_stages):
        healthy += int((~process.failed).sum())
        process.advance()
    return healthy / total
