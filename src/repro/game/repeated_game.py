"""Stage-synchronous driver for the repeated helper-selection game.

This is the pure-algorithm fast path: a population of learners plays the
stage game against a (possibly time-varying) helper-capacity process, with
no packet-level simulation.  The full discrete-event system in
:mod:`repro.sim` runs the *same* learners through the same protocol; the two
paths are cross-checked in the integration tests.

The capacity process is anything with ``capacities() -> ndarray`` and
``advance() -> None`` (see :class:`CapacityProcess`); concrete
implementations live in :mod:`repro.sim.bandwidth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.game.helper_selection import loads_from_profile
from repro.game.interfaces import Learner


@runtime_checkable
class CapacityProcess(Protocol):
    """Environment process supplying per-stage helper capacities."""

    @property
    def num_helpers(self) -> int:
        """Number of helpers ``H``."""
        ...

    def capacities(self) -> np.ndarray:
        """Current per-helper upload capacities (kbit/s)."""
        ...

    def advance(self) -> None:
        """Move the environment one stage forward."""
        ...


class StaticCapacities:
    """Trivial capacity process: constants for every stage."""

    def __init__(self, capacities: Sequence[float]) -> None:
        caps = np.asarray(capacities, dtype=float)
        if caps.ndim != 1 or caps.size == 0:
            raise ValueError("capacities must be a non-empty 1-D sequence")
        if np.any(caps < 0) or np.any(~np.isfinite(caps)):
            raise ValueError("capacities must be finite and non-negative")
        self._caps = caps

    @property
    def num_helpers(self) -> int:
        return self._caps.size

    def capacities(self) -> np.ndarray:
        return self._caps.copy()

    def minimum_capacities(self) -> np.ndarray:
        return self._caps.copy()

    def advance(self) -> None:  # noqa: D401 - trivial
        """No-op; capacities never change."""


@dataclass(frozen=True)
class StageRecord:
    """Everything that happened in one stage of the repeated game."""

    stage: int
    capacities: np.ndarray  # (H,) helper capacities this stage
    actions: np.ndarray     # (N,) helper chosen by each peer
    loads: np.ndarray       # (H,) resulting connection counts
    utilities: np.ndarray   # (N,) realized rates

    @property
    def welfare(self) -> float:
        """Social welfare (sum of realized rates) this stage."""
        return float(self.utilities.sum())


@dataclass
class Trajectory:
    """Dense arrays covering a full repeated-game run of ``T`` stages."""

    capacities: np.ndarray  # (T, H)
    actions: np.ndarray     # (T, N)
    loads: np.ndarray       # (T, H)
    utilities: np.ndarray   # (T, N)

    @property
    def num_stages(self) -> int:
        """Number of stages ``T``."""
        return self.actions.shape[0]

    @property
    def num_peers(self) -> int:
        """Number of peers ``N``."""
        return self.actions.shape[1]

    @property
    def num_helpers(self) -> int:
        """Number of helpers ``H``."""
        return self.loads.shape[1]

    @property
    def welfare(self) -> np.ndarray:
        """Per-stage social welfare, shape ``(T,)``."""
        return self.utilities.sum(axis=1)

    def stage(self, n: int) -> StageRecord:
        """Materialize stage ``n`` as a :class:`StageRecord`."""
        return StageRecord(
            stage=n,
            capacities=self.capacities[n],
            actions=self.actions[n],
            loads=self.loads[n],
            utilities=self.utilities[n],
        )

    def empirical_joint_counts(self) -> dict:
        """Histogram of observed joint action profiles (tuples -> counts).

        The empirical distribution of play is what converges to the CE set;
        :mod:`repro.core.equilibrium` consumes this.
        """
        counts: dict = {}
        for row in self.actions:
            key = tuple(int(a) for a in row)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def tail(self, fraction: float = 0.5) -> "Trajectory":
        """The final ``fraction`` of the run (used for steady-state stats)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        start = int(round(self.num_stages * (1.0 - fraction)))
        return Trajectory(
            capacities=self.capacities[start:],
            actions=self.actions[start:],
            loads=self.loads[start:],
            utilities=self.utilities[start:],
        )


StageCallback = Callable[[StageRecord], None]


class RepeatedGameDriver:
    """Runs a fixed population of learners through the repeated stage game.

    Parameters
    ----------
    learners:
        One :class:`~repro.game.interfaces.Learner` per peer; every learner
        must have ``num_actions == capacity_process.num_helpers``.
    capacity_process:
        Supplies per-stage helper capacities (e.g. the Markov-modulated
        process of the paper's evaluation).
    """

    def __init__(
        self,
        learners: Sequence[Learner],
        capacity_process: CapacityProcess,
    ) -> None:
        if not learners:
            raise ValueError("need at least one learner")
        self._learners = list(learners)
        self._process = capacity_process
        h = capacity_process.num_helpers
        for idx, learner in enumerate(self._learners):
            if learner.num_actions != h:
                raise ValueError(
                    f"learner {idx} has {learner.num_actions} actions "
                    f"but there are {h} helpers"
                )
        self._stage = 0

    @property
    def num_peers(self) -> int:
        """Population size ``N``."""
        return len(self._learners)

    @property
    def num_helpers(self) -> int:
        """Number of helpers ``H``."""
        return self._process.num_helpers

    @property
    def learners(self) -> List[Learner]:
        """The learner population (mutable list, same objects)."""
        return self._learners

    def run_stage(self) -> StageRecord:
        """Play one stage: everyone acts, rates realize, everyone observes."""
        caps = np.asarray(self._process.capacities(), dtype=float)
        if caps.shape != (self.num_helpers,):
            raise RuntimeError(
                f"capacity process returned shape {caps.shape}, "
                f"expected ({self.num_helpers},)"
            )
        actions = np.fromiter(
            (learner.act() for learner in self._learners),
            dtype=int,
            count=self.num_peers,
        )
        loads = loads_from_profile(actions, self.num_helpers)
        utilities = caps[actions] / loads[actions]
        for learner, action, utility in zip(self._learners, actions, utilities):
            learner.observe(int(action), float(utility))
        record = StageRecord(
            stage=self._stage,
            capacities=caps,
            actions=actions,
            loads=loads,
            utilities=utilities,
        )
        self._process.advance()
        self._stage += 1
        return record

    def run(
        self,
        num_stages: int,
        callback: Optional[StageCallback] = None,
    ) -> Trajectory:
        """Play ``num_stages`` stages and return the dense trajectory."""
        if num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        n, h = self.num_peers, self.num_helpers
        capacities = np.empty((num_stages, h))
        actions = np.empty((num_stages, n), dtype=int)
        loads = np.empty((num_stages, h), dtype=int)
        utilities = np.empty((num_stages, n))
        for t in range(num_stages):
            record = self.run_stage()
            capacities[t] = record.capacities
            actions[t] = record.actions
            loads[t] = record.loads
            utilities[t] = record.utilities
            if callback is not None:
                callback(record)
        return Trajectory(
            capacities=capacities, actions=actions, loads=loads, utilities=utilities
        )
