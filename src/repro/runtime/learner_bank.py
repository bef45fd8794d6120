"""Vectorized per-channel learner banks.

A *bank* holds the strategy state of every peer watching one channel and
advances all of them per round with array ops — the population-scale
counterpart of handing each :class:`~repro.sim.entities.Peer` its own
:class:`~repro.game.interfaces.Learner` object.  Each bank manages its
own row space with a free-list so churn joins/leaves are O(1).  The
vectorized system drives one fused bank over all channels (see
:mod:`repro.runtime.grouped_bank`); the per-channel banks here are the
baselines' storage behind that fused API and the reference oracle the
fused regret bank is asserted bit-identical against.

The regret banks do **not** reimplement the paper's math: they wrap the
slot API of :class:`repro.core.population.LearnerPopulation` (or its
top-k variant), the single vectorized implementation of the paper's one
constant-step recursion, which ``rths`` and ``r2hs`` both run (with a
constant step the recursion equals the literal RTHS history sums — see the
exact/recursive equivalence in ``tests/core/test_proxy_regret.py``).
:class:`UniformBank` and :class:`StickyBank` vectorize the corresponding
baselines from :mod:`repro.game.baselines`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.core.population import LearnerPopulation
from repro.util.rng import Seedish, as_generator

if TYPE_CHECKING:  # grouped_bank imports this module
    from repro.core.sparse_population import TopKPopulation
    from repro.runtime.grouped_bank import GroupedLearnerBank

#: Builds the one bank owning every channel's rows, called with the
#: per-channel helper counts and one child generator per channel — the
#: vectorized analogue of :data:`repro.sim.system.LearnerFactory`.
BankFactory = Callable[
    [Sequence[int], Sequence[np.random.Generator]], "GroupedLearnerBank"
]

_INITIAL_ROWS = 64


@runtime_checkable
class LearnerBank(Protocol):
    """Strategy state for all peers of one channel, advanced in batch."""

    @property
    def num_actions(self) -> int:
        """Size of the action set (the channel's helper count)."""
        ...

    def acquire(self) -> int:
        """Claim a fresh-state row for a joining peer; returns its index."""
        ...

    def acquire_many(self, count: int) -> np.ndarray:
        """Bulk :meth:`acquire` for initial populations."""
        ...

    def release(self, row: int) -> None:
        """Return a leaving peer's row to the free pool."""
        ...

    def act(self, rows: np.ndarray) -> np.ndarray:
        """Sample one action per listed row."""
        ...

    def observe(
        self, rows: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        """Feed realized utilities back to the listed rows."""
        ...


class _RowBank:
    """Shared row lifecycle: doubling capacity, a LIFO free-list of
    released rows and a fresh watermark.

    Rows at or above the watermark ``_issued`` were never handed out, as
    with the slots past ``PeerStore._size``.  Released rows go out again
    first, the most recently released first; then fresh rows, in
    ascending order.  :meth:`_reset_rows` sees every row handed out
    before the watermark rises past it, so a bank whose storage creates
    rows in the reset state can skip the fresh ones.
    """

    def __init__(self, initial_rows: int = _INITIAL_ROWS) -> None:
        if initial_rows < 1:
            raise ValueError("initial_rows must be >= 1")
        self._rows = int(initial_rows)
        self._issued = 0
        self._free: List[int] = []

    @property
    def rows(self) -> int:
        """Current row capacity."""
        return self._rows

    def _grow_rows(self, new_rows: int) -> None:
        """Extend backing storage to ``new_rows`` (subclass hook)."""
        raise NotImplementedError

    def _reset_rows(self, rows) -> None:
        """Restore ``rows`` -- one row index or an index array -- to the
        fresh-learner state (subclass hook).  Those at or above the
        watermark are being issued for the first time."""
        raise NotImplementedError

    def _first_fresh(self, count: int) -> int:
        """The first of ``count`` fresh rows, growing storage to hold them."""
        first = self._issued
        if first + count > self._rows:
            new = max(2 * self._rows, first + count)
            self._grow_rows(new)
            self._rows = new
        return first

    def acquire(self) -> int:
        row = self._free.pop() if self._free else self._first_fresh(1)
        self._reset_rows(row)
        self._issued = max(self._issued, row + 1)
        return row

    def acquire_many(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        split = max(len(self._free) - count, 0)
        recycled = self._free[split:][::-1]
        del self._free[split:]
        fresh = count - len(recycled)
        first = self._first_fresh(fresh)
        rows = np.concatenate(
            [
                np.array(recycled, dtype=np.int64),
                np.arange(first, first + fresh, dtype=np.int64),
            ]
        )
        self._reset_rows(rows)
        self._issued = first + fresh
        return rows

    def release(self, row: int) -> None:
        self._free.append(int(row))


class _PopulationRows(_RowBank):
    """Rows that are the slots of one regret population, ``_pop``, which a
    subclass sets after ``super().__init__``.

    A population creates its slots in the reset state, so only rows that
    come back from the free-list are reset.
    """

    _pop: "LearnerPopulation | TopKPopulation"

    def _grow_rows(self, new_rows: int) -> None:
        self._pop.ensure_capacity(new_rows)

    def _reset_rows(self, rows) -> None:
        if isinstance(rows, np.ndarray):
            rows = rows[rows < self._issued]
            if rows.size:
                self._pop.reset_slots(rows)
        elif rows < self._issued:
            self._pop.reset_slots(rows)


class RegretBank(_PopulationRows):
    """Vectorized regret-tracking block (the recursion ``rths`` and
    ``r2hs`` both run).

    Thin ownership wrapper over the slot API of
    :class:`~repro.core.population.LearnerPopulation`: ``acquire`` hands
    out a population slot in the fresh-learner state, ``act``/``observe``
    advance the listed slots.
    """

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
        initial_rows: int = _INITIAL_ROWS,
        dtype=np.float64,
    ) -> None:
        super().__init__(initial_rows)
        self._pop = LearnerPopulation(
            self.rows,
            num_actions,
            epsilon=epsilon,
            mu=mu,
            delta=delta,
            u_max=u_max,
            rng=rng,
            dtype=dtype,
        )

    @property
    def num_actions(self) -> int:
        return self._pop.num_helpers

    @property
    def population(self) -> LearnerPopulation:
        """The backing population (for diagnostics: regrets, strategies)."""
        return self._pop

    def act(self, rows: np.ndarray) -> np.ndarray:
        return self._pop.act_slots(rows)

    def observe(
        self, rows: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        self._pop.observe_slots(rows, actions, utilities)


class TopKRegretBank(_PopulationRows):
    """Sparse top-k regret block for giant helper counts (``H >> 10^3``).

    Same slot API and the same recursion as :class:`RegretBank`,
    but backed by :class:`~repro.core.sparse_population.TopKPopulation`:
    each row tracks an exact ``(k, k)`` regret block over its top-k helper
    arms plus an aggregated tail bucket, so a channel's memory is
    ``O(rows * k^2)`` instead of ``O(rows * H^2)``.  With ``k >= H`` the
    bank is bit-identical to :class:`RegretBank` (asserted in
    ``tests/runtime/test_topk_bank.py``); below that it is the controlled
    approximation described in the sparse-population module docstring.
    """

    def __init__(
        self,
        num_actions: int,
        k: int = 32,
        rng: Seedish = None,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
        initial_rows: int = _INITIAL_ROWS,
        dtype=np.float64,
        reselect_every: int = 32,
    ) -> None:
        from repro.core.sparse_population import TopKPopulation

        super().__init__(initial_rows)
        self._pop = TopKPopulation(
            self.rows,
            num_actions,
            k=k,
            epsilon=epsilon,
            mu=mu,
            delta=delta,
            u_max=u_max,
            rng=rng,
            dtype=dtype,
            reselect_every=reselect_every,
        )

    @property
    def num_actions(self) -> int:
        return self._pop.num_helpers

    @property
    def k(self) -> int:
        """Tracked arms per row (clamped to the channel's helper count)."""
        return self._pop.k

    @property
    def population(self) -> TopKPopulation:
        """The backing sparse population (for diagnostics)."""
        return self._pop

    def act(self, rows: np.ndarray) -> np.ndarray:
        return self._pop.act_slots(rows)

    def observe(
        self, rows: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        self._pop.observe_slots(rows, actions, utilities)


class UniformBank(_RowBank):
    """Vectorized :class:`~repro.game.baselines.UniformRandomLearner`."""

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        initial_rows: int = _INITIAL_ROWS,
    ) -> None:
        super().__init__(initial_rows)
        if num_actions < 1:
            raise ValueError("num_actions must be >= 1")
        self._m = int(num_actions)
        self._rng = as_generator(rng)

    @property
    def num_actions(self) -> int:
        return self._m

    def _grow_rows(self, new_rows: int) -> None:
        pass  # stateless per row

    def _reset_rows(self, rows) -> None:
        pass

    def act(self, rows: np.ndarray) -> np.ndarray:
        return self._rng.integers(0, self._m, size=np.asarray(rows).shape[0])

    def observe(
        self, rows: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        actions = np.asarray(actions)
        if actions.size and (actions.min() < 0 or actions.max() >= self._m):
            raise ValueError("actions out of range")


class StickyBank(_RowBank):
    """Vectorized :class:`~repro.game.baselines.StickyLearner`: each row
    keeps its pick and re-picks uniformly with a small probability."""

    def __init__(
        self,
        num_actions: int,
        rng: Seedish = None,
        switch_probability: float = 0.01,
        initial_rows: int = _INITIAL_ROWS,
    ) -> None:
        super().__init__(initial_rows)
        if num_actions < 1:
            raise ValueError("num_actions must be >= 1")
        if not 0 <= switch_probability <= 1:
            raise ValueError("switch_probability must lie in [0, 1]")
        self._m = int(num_actions)
        self._switch = float(switch_probability)
        self._rng = as_generator(rng)
        self._current = self._rng.integers(0, self._m, size=self.rows)

    @property
    def num_actions(self) -> int:
        return self._m

    def _grow_rows(self, new_rows: int) -> None:
        extra = self._rng.integers(0, self._m, size=new_rows - self._current.size)
        self._current = np.concatenate([self._current, extra])

    def _reset_rows(self, rows) -> None:
        # One row draws one scalar: the same value, and the same stream
        # position, as a one-element draw.
        size = rows.shape[0] if isinstance(rows, np.ndarray) else None
        self._current[rows] = self._rng.integers(0, self._m, size=size)

    def act(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        switching = self._rng.random(rows.shape[0]) < self._switch
        if np.any(switching):
            self._current[rows[switching]] = self._rng.integers(
                0, self._m, size=int(switching.sum())
            )
        return self._current[rows].copy()

    def observe(
        self, rows: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        actions = np.asarray(actions)
        if actions.size and (actions.min() < 0 or actions.max() >= self._m):
            raise ValueError("actions out of range")


def bank_factory(
    kind: str,
    epsilon: float = 0.05,
    mu: Optional[float] = None,
    delta: float = 0.1,
    u_max: float = 900.0,
    switch_probability: float = 0.01,
    dtype=np.float64,
    bank: str = "dense",
    topk: int = 32,
    reselect_every: int = 32,
) -> BankFactory:
    """Build a :data:`BankFactory` by name.

    ``kind`` is one of ``"rths"``, ``"r2hs"``, ``"uniform"``, ``"sticky"``.
    The hyper-parameters mirror the scalar learners; ``u_max`` defaults to
    the paper's maximum helper capacity (900 kbit/s).  ``dtype`` selects
    the regret banks' storage precision (float32 opt-in; see
    :class:`~repro.core.population.LearnerPopulation`); the stateless
    baselines ignore it.

    ``bank`` selects the regret families' storage family: ``"dense"``
    (the full per-row regret tensor) or ``"topk"`` (sparse
    :class:`~repro.core.sparse_population.TopKPopulation` blocks tracking
    ``topk`` arms per row, with popularity-driven re-selection every
    ``reselect_every`` stages).  The
    baselines have no regret state and reject ``"topk"``.

    The regret families build a
    :class:`~repro.runtime.grouped_bank.GroupedRegretBank` (one kernel
    pass per distinct channel width).  The baselines build a
    :class:`~repro.runtime.grouped_bank.PerChannelGroupedBank` over one
    :class:`UniformBank` / :class:`StickyBank` per channel: their
    per-round cost *is* the per-channel RNG call, so there is nothing to
    fuse.
    """
    from repro.runtime.grouped_bank import (
        GroupedRegretBank,
        PerChannelGroupedBank,
        build_per_channel_banks,
    )

    kind = kind.lower()
    if bank not in ("dense", "topk"):
        raise ValueError(f"bank must be 'dense' or 'topk', got {bank!r}")
    if kind in ("rths", "r2hs"):
        # Both kinds name the paper's one constant-step recursion.
        def build_regret(arm_counts, rngs):
            return GroupedRegretBank(
                arm_counts, rngs, epsilon=epsilon, mu=mu, delta=delta,
                u_max=u_max, dtype=dtype, bank=bank, topk=topk,
                reselect_every=reselect_every,
            )

        return build_regret
    if bank == "topk":
        raise ValueError(
            f"bank 'topk' applies to the regret families, not {kind!r}"
        )
    if kind == "uniform":
        def per_channel(h, rng):
            return UniformBank(h, rng=rng)
    elif kind == "sticky":
        def per_channel(h, rng):
            return StickyBank(h, rng=rng, switch_probability=switch_probability)
    else:
        raise ValueError(f"unknown bank kind {kind!r}")

    def build_baseline(arm_counts, rngs):
        return PerChannelGroupedBank(
            build_per_channel_banks(per_channel, arm_counts, rngs)
        )

    return build_baseline
