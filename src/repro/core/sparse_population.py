"""Sparse top-k population of regret-tracking learners.

:class:`~repro.core.population.LearnerPopulation` carries the full
``(N, H, H)`` proxy-regret tensor — the last memory wall for single-cell
giant runs: at ``H = 2000`` helpers one float32 peer costs 16 MB, so
``N = 20 000`` peers would need ~320 GB *per channel*.  Regret matching
concentrates probability mass on a handful of helper arms per peer (the
paper's convergence to the correlated-equilibrium set), which makes the
tensor effectively sparse: almost every row and column of a peer's ``S``
belongs to an arm the peer no longer plays and whose entries have decayed
to the exploration floor.

:class:`TopKPopulation` exploits that structure.  Each peer tracks an
*exact* ``(k, k)`` block of the recursion restricted to its ``k`` tracked
helper arms (CSR-style ``(N, k)`` index + value blocks), and every
untracked arm is represented by the **aggregated tail bucket** — a closed
form, because an arm with no tracked regret receives exactly the
exploration probability ``delta / H`` from the probability update, so the
whole tail carries ``(H - k) * delta / H`` of mass without per-arm
storage.

**Why the block stays exact.**  The recursive update (Eq. 3-5) increments
only *column* ``a`` of ``S`` when ``a`` is played; every other entry just
decays.  So information about an arm arrives exclusively while it is
being played — the moment a peer plays an untracked arm, that arm is
**promoted** into the tracked set (evicting the tracked arm with the
least probability mass, whose row/column have decayed to the floor), and
from then on its regret accrues exactly as in the dense recursion.  The
only approximation is the discarded history of evicted arms, which the
per-peer ``tail_regret`` diagnostic upper-bounds.

**Periodic re-selection.**  Every ``reselect_every`` stages a slot
re-selects its tracked set against the bank-wide play popularity (an
EWMA over observed actions): the globally hottest arm the slot does not
track yet replaces the slot's weakest tracked arm, *provided* that arm
sits at the exploration floor (so the swap moves no probability mass and
discards no regret).  This pre-warms popular arms — their regret history
starts accruing before the peer's own exploration finds them — without
ever perturbing the current strategy.

**Blocks stay put.**  A peer's ``k``-wide rows — tracked ids, strategy
and the played-regret row — are kept in ascending arm order, which
the action sampler's tail walk and the insertion search rely on.  The
``(k, k)`` block is not: it is indexed by *storage slot*, and a per-row
position map ``pos`` (one more ``k``-wide row) gives the slot of the arm
at each sorted rank.  A promotion or re-selection therefore zeroes one
storage row and one storage column in place and re-sorts only the
``k``-wide rows, instead of copying the whole block through a
permutation.  The stage update reaches the played arm's column and
regret row through ``pos``, in sorted order, so every float operation
sees the operands it would see in a sorted block.

With ``k >= H`` every arm is tracked, no promotion or re-selection can
trigger, and the class performs the *bit-identical* sequence of
floating-point operations as :class:`LearnerPopulation` (asserted
trace-for-trace in ``tests/runtime/test_topk_bank.py``; ``pos`` stays the
identity), so the sparse representation is a pure memory optimization at
small ``H`` and a controlled approximation at large ``H``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.probability import default_mu
from repro.util.rng import Seedish, as_generator
from repro.util.validation import require_positive, require_positive_int

# Lazy-decay renorm floors, the observe blocking rule, the step and slot
# checks, the act prefix sum and the row machinery are shared with the
# dense kernel: the two recursions must renormalize, block and sum at the
# same points to stay bit-identical at k >= H, so there is exactly one
# source of truth.
from repro.core.population import (
    _SCALE_FLOOR,
    _SCALE_FLOOR32,
    _Scratch,
    _gather,
    _grown,
    _items,
    _observe_block_rows,
    _prefix_sums,
    _require_slots,
    _require_step,
)

#: Decay of the bank-wide play-popularity EWMA driving re-selection.
_PLAY_EWMA_DECAY = 0.05

#: How many globally-hot candidate arms a re-selection pass considers.
_RESELECT_CANDIDATES = 8


class TopKPopulation:
    """``N`` regret learners tracking exact ``(k, k)`` regret blocks.

    Drop-in slot-API replacement for
    :class:`~repro.core.population.LearnerPopulation` (``act_slots`` /
    ``observe_slots`` / ``reset_slots`` / ``ensure_capacity``), storing
    ``O(N * k^2)`` instead of ``O(N * H^2)``.

    State per slot ``i``: the ``(N, k)`` rows ``_ids``, ``_probs``,
    ``_pos`` and ``_last_played_regrets`` in sorted-arm order (rank ``r``
    is the ``r``-th smallest tracked id), and the block
    ``_s[i]`` indexed by storage slot.  ``_pos[i, r]`` is the storage
    slot of the arm at rank ``r``; the block is transposed like the dense
    kernel's, so ``_s[i, _pos[i, c], _pos[i, r]]`` holds
    ``S_i(row=ids[i, r], col=ids[i, c])``.

    Parameters
    ----------
    num_peers, num_helpers:
        Population and action-set sizes.
    k:
        Tracked arms per peer; clamped to ``num_helpers``.  At
        ``k >= num_helpers`` the dynamics are bit-identical to the dense
        population.
    epsilon, mu, delta, u_max, rng, dtype:
        As in :class:`~repro.core.population.LearnerPopulation`.
    reselect_every:
        Period (in per-slot stages) of the popularity-driven tracked-set
        re-selection; ``0`` disables it (promotion on play still runs —
        it is required for correctness, not a policy).
    num_channel_groups:
        Number of independent popularity domains sharing this population.
        The play-popularity EWMA that drives re-selection is kept *per
        group*, and each slot belongs to exactly one group (assigned with
        :meth:`set_slot_groups`; default group 0).  The channel-grouped
        engine (:mod:`repro.runtime.grouped_bank`) hosts every channel of
        one arm count in a single population and maps each channel to its
        own group, so a slot's re-selection sees only its own channel's
        play popularity — exactly as if the channel had a private bank.
        With the default of one group the behaviour (and the arithmetic)
        is identical to the original single-EWMA population.
    """

    def __init__(
        self,
        num_peers: int,
        num_helpers: int,
        k: int = 32,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
        rng: Seedish = None,
        dtype=np.float64,
        reselect_every: int = 32,
        num_channel_groups: int = 1,
    ) -> None:
        self._num_groups = require_positive_int(
            num_channel_groups, "num_channel_groups"
        )
        self._n = require_positive_int(num_peers, "num_peers")
        self._h = require_positive_int(num_helpers, "num_helpers")
        if self._h < 2:
            raise ValueError("need at least two helpers")
        if int(k) < 2:
            raise ValueError("k must be >= 2 (the action set must be non-degenerate)")
        self._k = min(int(k), self._h)
        if not 0 < delta < 1:
            raise ValueError("delta must lie strictly in (0, 1)")
        if reselect_every < 0:
            raise ValueError("reselect_every must be >= 0")
        self._reselect_every = int(reselect_every)
        self._epsilon = _require_step(epsilon)
        self._mu = require_positive(
            mu if mu is not None else default_mu(num_helpers), "mu"
        )
        self._delta = float(delta)
        self._u_max = require_positive(u_max, "u_max")
        self._rng = as_generator(rng)
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"dtype must be float32 or float64, got {self._dtype}"
            )
        self._scale_floor = (
            _SCALE_FLOOR32 if self._dtype == np.dtype(np.float32) else _SCALE_FLOOR
        )
        n, kk = self._n, self._k
        self._tail_count = self._h - kk
        # Tail bucket probability mass after an observe is the closed form
        # tail_count * delta / H; before a slot's first observe it is the
        # uniform (H - k) / H.
        self._tail_mass = self._tail_count * self._delta / self._h
        # Tracked-arm ids, per-row sorted ascending (CSR-style index block).
        self._ids = np.tile(np.arange(kk, dtype=np.int32), (n, 1))
        # Storage slot of each sorted rank (see the class docstring).
        self._pos = self._ids.copy()
        self._s = np.zeros((n, kk, kk), dtype=self._dtype)
        self._scale = np.ones(n)
        self._probs = np.full((n, kk), 1.0 / self._h, dtype=self._dtype)
        self._tail_prob = np.full(n, self._tail_count / self._h)
        self._stage = 0
        self._stages = np.zeros(n, dtype=np.int64)
        self._peer_index = np.arange(n)
        self._last_played_regrets = np.zeros((n, kk), dtype=self._dtype)
        # One opaque item per k-wide row, for whole-row gathers and
        # scatters: float rows, and the int32 rows of _ids and _pos.
        self._item = np.dtype((np.void, kk * self._dtype.itemsize))
        self._index_item = np.dtype((np.void, kk * self._ids.itemsize))
        self._scratch = _Scratch()
        # Aggregated tail bucket: regret mass discarded by evictions
        # (absolute units) — an upper bound on the per-peer approximation.
        self._tail_regret = np.zeros(n)
        self._play_ewma = np.zeros((self._num_groups, self._h))
        self._slot_group = np.zeros(n, dtype=np.int32)
        self._promotions = 0
        self._reselections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Population size ``N`` (the number of slots)."""
        return self._n

    @property
    def num_helpers(self) -> int:
        """Number of helpers ``H``."""
        return self._h

    @property
    def k(self) -> int:
        """Tracked arms per peer (clamped to ``H``)."""
        return self._k

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the regret blocks and strategies."""
        return self._dtype

    @property
    def stage(self) -> int:
        """Whole-population stages completed (``observe_all`` calls)."""
        return self._stage

    @property
    def promotions(self) -> int:
        """Untracked plays promoted into tracked sets so far."""
        return self._promotions

    @property
    def reselections(self) -> int:
        """Popularity-driven tracked-set swaps performed so far."""
        return self._reselections

    @property
    def num_channel_groups(self) -> int:
        """Independent popularity domains (per-group play EWMAs)."""
        return self._num_groups

    def nbytes(self) -> int:
        """Bytes allocated for the per-slot arrays (blocks, rows and
        counters), at the current slot capacity.

        This counts allocated bytes, not resident ones: the pages of
        slots never issued and never written are not committed (see
        :meth:`ensure_capacity`).
        """
        return sum(
            a.nbytes
            for a in (
                self._s,
                self._ids,
                self._pos,
                self._probs,
                self._last_played_regrets,
                self._scale,
                self._tail_prob,
                self._tail_regret,
                self._stages,
                self._slot_group,
                self._peer_index,
            )
        )

    def slot_stages(self) -> np.ndarray:
        """Per-slot stage counters, shape ``(N,)`` (copy)."""
        return self._stages.copy()

    def tracked_arms(self) -> np.ndarray:
        """Tracked helper ids, shape ``(N, k)``, rows sorted (copy)."""
        return self._ids.copy()

    def tail_regret(self) -> np.ndarray:
        """Per-peer regret mass discarded by evictions, shape ``(N,)``."""
        return self._tail_regret.copy()

    def strategies(self) -> np.ndarray:
        """All mixed strategies densified to shape ``(N, H)``."""
        out = np.empty((self._n, self._h))
        if self._tail_count:
            out[:] = (self._tail_prob / self._tail_count)[:, None]
        np.put_along_axis(
            out, self._ids.astype(np.intp), self._probs.astype(np.float64), axis=1
        )
        return out

    def played_regrets(self) -> np.ndarray:
        """Tracked regret rows of the last played actions, ``(N, k)``."""
        return self._last_played_regrets.copy()

    def worst_player_regret(self) -> float:
        """``max_i max_k Q_i(a_i^n, k)`` over tracked arms (the Fig. 1
        quantity; untracked arms carry zero tracked regret by
        construction)."""
        if self._stage == 0 and not self._stages.any():
            return 0.0
        return float(self._last_played_regrets.max())

    # ------------------------------------------------------------------
    # Slot management (used by repro.runtime banks)
    # ------------------------------------------------------------------

    def ensure_capacity(self, capacity: int) -> None:
        """Grow the population to at least ``capacity`` slots.

        New slots start fresh, byte for byte as :meth:`reset_slots`
        leaves a slot, so a bank hands them out without a reset.  Only
        the old slots are copied: the new slots' share of the
        ``(N, k, k)`` blocks stays unwritten, and so not resident, until
        a stage first updates it.
        """
        if capacity <= self._n:
            return
        first_arms = np.arange(self._k, dtype=np.int32)
        self._ids = _grown(self._ids, capacity, first_arms)
        self._pos = _grown(self._pos, capacity, first_arms)
        self._s = _grown(self._s, capacity)
        self._scale = _grown(self._scale, capacity, 1.0)
        self._probs = _grown(self._probs, capacity, 1.0 / self._h)
        self._tail_prob = _grown(
            self._tail_prob, capacity, self._tail_count / self._h
        )
        self._stages = _grown(self._stages, capacity)
        self._last_played_regrets = _grown(self._last_played_regrets, capacity)
        self._tail_regret = _grown(self._tail_regret, capacity)
        self._slot_group = _grown(self._slot_group, capacity)
        self._n = int(capacity)
        self._peer_index = np.arange(self._n)

    def set_slot_groups(self, slots, group: int) -> None:
        """Assign ``slots`` (one index or an index array) to popularity
        domain ``group``.

        Called by the channel-grouped bank when a row is (re)acquired for
        a channel, so re-selection reads that channel's EWMA.  No regret
        or strategy state is touched.
        """
        if not 0 <= int(group) < self._num_groups:
            raise ValueError(
                f"group must lie in [0, {self._num_groups}), got {group}"
            )
        self._slot_group[np.asarray(slots, dtype=np.intp)] = int(group)

    def reset_slots(self, slots) -> None:
        """Reinitialize ``slots`` to the fresh-learner state.

        The tracked index block is rewound to the first ``k`` arms and the
        value block zeroed, so a recycled slot carries no stale indices or
        regret from its previous occupant.  ``slots`` is one slot index
        (served by basic indexing) or an index array.
        """
        if not isinstance(slots, (int, np.integer)):
            slots = np.asarray(slots, dtype=np.intp)
        self._ids[slots] = np.arange(self._k, dtype=np.int32)
        self._pos[slots] = np.arange(self._k, dtype=np.int32)
        self._s[slots] = 0.0
        self._scale[slots] = 1.0
        self._probs[slots] = 1.0 / self._h
        self._tail_prob[slots] = self._tail_count / self._h
        self._stages[slots] = 0
        self._last_played_regrets[slots] = 0.0
        self._tail_regret[slots] = 0.0
        self._slot_group[slots] = 0

    def act_slots(
        self, slots: np.ndarray, draws: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Sample one action per listed slot (one uniform draw per slot).

        The draw inverts the CDF over the tracked arms first; a draw
        landing in the tail bucket is re-used (rescaled) to pick one of
        the ``H - k`` untracked arms uniformly, so the per-slot RNG
        consumption matches the dense population exactly.  ``draws``
        optionally supplies the uniforms externally (the channel-grouped
        engine's per-channel-stream hook, as in
        :meth:`~repro.core.population.LearnerPopulation.act_slots`).
        """
        slots = np.asarray(slots, dtype=np.intp)
        _require_slots(slots, self._n)
        count = slots.shape[0]
        cdf = _prefix_sums(self._rows(self._probs, slots))
        if draws is None:
            draws = self._rng.random(count)
        else:
            draws = np.asarray(draws, dtype=float)
            if draws.shape != (count,):
                raise ValueError("draws must supply one uniform per slot")
        below = self._scratch.rows("act_below", count, self._k, np.bool_)
        np.less(cdf, draws[:, None], out=below)
        local = below.sum(axis=1)
        if self._tail_count == 0:
            local = np.minimum(local, self._k - 1)
            return self._ids[slots, local].astype(np.int64)
        actions = np.empty(slots.shape[0], dtype=np.int64)
        tracked = local < self._k
        t_idx = np.flatnonzero(tracked)
        if t_idx.size:
            actions[t_idx] = self._ids[slots[t_idx], local[t_idx]]
        u_idx = np.flatnonzero(~tracked)
        if u_idx.size:
            us = slots[u_idx]
            tail_prob = self._tail_prob[us]
            residual = draws[u_idx] - cdf[u_idx, -1]
            frac = residual / np.maximum(tail_prob, 1e-300)
            rank = np.minimum(
                (frac * self._tail_count).astype(np.int64), self._tail_count - 1
            )
            np.maximum(rank, 0, out=rank)
            # rank-th arm NOT in the (sorted) tracked row: classic skip
            # walk — each tracked id <= the running candidate shifts the
            # candidate up by one.
            g = rank
            tids = self._rows(self._ids, us)
            for j in range(self._k):
                g = g + (tids[:, j] <= g)
            actions[u_idx] = g
        return actions

    def observe_slots(
        self, slots: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        """Regret + probability update for the listed slots only.

        Plays of untracked arms promote those arms into the tracked set
        first (see the module docstring); the update itself is the dense
        recursion restricted to the tracked block.
        """
        slots = np.asarray(slots, dtype=np.intp)
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        count = slots.shape[0]
        if actions.shape != (count,) or utilities.shape != (count,):
            raise ValueError("slots, actions and utilities must align")
        _require_slots(slots, self._n)
        if count == 0:
            return
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self._h:
            raise ValueError("actions out of range")
        if self._reselect_every and self._tail_count:
            # Each group's EWMA decays once per observe it participates in
            # and absorbs only its own slots' plays — for a single group
            # this is exactly the original global update, and in the
            # grouped engine it matches the per-channel banks' private
            # EWMAs update-for-update.
            if self._num_groups == 1:
                self._play_ewma[0] *= 1.0 - _PLAY_EWMA_DECAY
                np.add.at(self._play_ewma[0], actions, _PLAY_EWMA_DECAY)
            else:
                groups = self._slot_group[slots]
                # The groups present, ascending: np.unique without its
                # sort (and without loading numpy.ma).
                present = np.flatnonzero(
                    np.bincount(groups, minlength=self._num_groups)
                )
                self._play_ewma[present] *= 1.0 - _PLAY_EWMA_DECAY
                np.add.at(
                    self._play_ewma, (groups, actions), _PLAY_EWMA_DECAY
                )
        block = _observe_block_rows(self._k)
        if count > block:
            for start in range(0, count, block):
                stop = start + block
                self._observe_block(
                    slots[start:stop], actions[start:stop], utilities[start:stop]
                )
            return
        self._observe_block(slots, actions, utilities)

    # ------------------------------------------------------------------
    # Tracked-set maintenance
    # ------------------------------------------------------------------

    def _rows(self, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Rows ``slots`` of the ``(N, k)`` array ``rows``, gathered whole
        into a fresh ``(len(slots), k)`` array."""
        item = self._item if rows.dtype == self._dtype else self._index_item
        return _gather(rows, slots, item)

    def _set_rows(self, rows: np.ndarray, slots: np.ndarray, values: np.ndarray) -> None:
        """Scatter the C-contiguous ``values`` into rows ``slots`` of ``rows``."""
        item = self._item if rows.dtype == self._dtype else self._index_item
        _items(rows, item)[slots] = _items(values, item)

    def _locate(self, slots: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-row insertion point of ``actions`` in the sorted id rows."""
        return (self._rows(self._ids, slots) < actions[:, None]).sum(axis=1)

    def _permute_rows(self, slots: np.ndarray) -> None:
        """Re-sort ``slots``' k-wide rows by arm id (the blocks stay put)."""
        ids = self._rows(self._ids, slots)
        order = np.argsort(ids, axis=1, kind="stable")
        self._set_rows(self._ids, slots, np.take_along_axis(ids, order, axis=1))
        pos = np.take_along_axis(self._rows(self._pos, slots), order, axis=1)
        self._set_rows(self._pos, slots, pos)
        probs = np.take_along_axis(self._rows(self._probs, slots), order, axis=1)
        self._set_rows(self._probs, slots, probs)

    def _clear_arm(self, slots: np.ndarray, ranks: np.ndarray) -> None:
        """Zero the block row and column of the arm at sorted ``ranks``."""
        freed = self._pos[slots, ranks]
        self._s[slots, freed, :] = 0.0
        self._s[slots, :, freed] = 0.0

    def _promote(self, slots: np.ndarray, arms: np.ndarray) -> None:
        """Swap ``arms`` (untracked, just played) into ``slots``' tracked
        sets, evicting each slot's least-probable tracked arm."""
        kk = self._k
        evict = self._rows(self._probs, slots).argmin(axis=1)
        # Fold the evicted arms' remaining regret mass into the tail
        # bucket diagnostic (column + row of the block, diagonal once),
        # each summed in sorted-arm order.
        pos = self._rows(self._pos, slots)
        freed = pos[np.arange(slots.shape[0]), evict]
        s_flat = self._s.reshape(-1)
        block = slots * (kk * kk)
        col_sum = s_flat[(block + freed * kk)[:, None] + pos].sum(axis=1)
        row_sum = s_flat[(block + freed)[:, None] + pos * kk].sum(axis=1)
        diag = s_flat[block + freed * (kk + 1)]
        discarded = (col_sum + row_sum - diag) * self._scale[slots]
        self._tail_regret[slots] += np.maximum(discarded, 0.0)
        # The promoted arm enters with its true current probability — the
        # per-arm tail share — and a fresh row/column.
        arm_prob = self._tail_prob[slots] / max(self._tail_count, 1)
        self._ids[slots, evict] = arms.astype(np.int32)
        self._clear_arm(slots, evict)
        self._probs[slots, evict] = arm_prob.astype(self._dtype)
        self._permute_rows(slots)
        self._promotions += int(slots.shape[0])

    def _reselect(self, slots: np.ndarray) -> None:
        """Popularity-driven re-selection for ``slots``.

        Each slot swaps the hottest arm *of its own channel group* it
        does not track for its weakest tracked arm — only when that arm
        sits at the exploration floor ``delta / H`` (zero tracked
        regret), so the swap is probability-mass-preserving and discards
        no information.
        """
        if self._num_groups == 1:
            self._reselect_in(slots, self._play_ewma[0])
            return
        groups = self._slot_group[slots]
        for g in np.flatnonzero(np.bincount(groups, minlength=self._num_groups)):
            self._reselect_in(slots[groups == g], self._play_ewma[g])

    def _reselect_in(self, slots: np.ndarray, play_ewma: np.ndarray) -> None:
        """Re-selection of ``slots`` against one group's popularity EWMA."""
        m = min(_RESELECT_CANDIDATES, self._h)
        hot = np.argpartition(play_ewma, self._h - m)[self._h - m:]
        hot = hot[np.argsort(play_ewma[hot])[::-1]]
        hot = hot[play_ewma[hot] > 0.0]
        if not hot.size:
            return
        probs = self._rows(self._probs, slots)
        weak = probs.argmin(axis=1)
        floor = self._delta / self._h
        swappable = probs[np.arange(slots.shape[0]), weak] <= floor * (1.0 + 1e-9)
        ids = self._rows(self._ids, slots)
        chosen = np.full(slots.shape[0], -1, dtype=np.int64)
        for arm in hot:
            pos = np.minimum((ids < arm).sum(axis=1), self._k - 1)
            tracked = ids[np.arange(slots.shape[0]), pos] == arm
            take = (chosen < 0) & ~tracked
            chosen[take] = arm
        pick = np.flatnonzero(swappable & (chosen >= 0))
        if not pick.size:
            return
        ps = slots[pick]
        ev = weak[pick]
        self._ids[ps, ev] = chosen[pick].astype(np.int32)
        self._clear_arm(ps, ev)
        # weakest arm sat at the floor, which is exactly the incoming
        # arm's tail probability — stored probs stay consistent as-is.
        self._permute_rows(ps)
        self._reselections += int(pick.size)

    # ------------------------------------------------------------------
    # The stage update (dense recursion on the tracked block)
    # ------------------------------------------------------------------

    def _observe_block(
        self, slots: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        count = slots.shape[0]
        kk = self._k
        ws = self._scratch
        item = self._item
        self._stages[slots] += 1
        eps = self._epsilon
        normalized = np.divide(
            utilities, self._u_max, out=ws.vec("norm", count, np.float64)
        )

        # Lazy decay, mirrored operation-for-operation from the dense
        # kernel (bit-identical at k >= H).
        decay = 1.0 - eps
        if decay < self._scale_floor:
            self._s[slots] = 0.0
            self._scale[slots] = 1.0
            decay = 1.0
        scale = self._scale[slots]
        scale *= decay
        self._scale[slots] = scale

        # Promote untracked plays so the played arm has a row and column
        # in the block.
        loc = self._locate(slots, actions)
        loc_c = np.minimum(loc, kk - 1)
        is_tracked = self._ids[slots, loc_c] == actions
        untracked = np.flatnonzero(~is_tracked)
        if untracked.size:
            self._promote(slots[untracked], actions[untracked])
            loc[untracked] = self._locate(slots[untracked], actions[untracked])
        np.minimum(loc, kk - 1, out=loc)
        # Flat start of each row, and of its played rank, in a (count, k)
        # buffer.
        row_start = ws.vec("row_start", count, np.intp)
        np.multiply(ws.arange(count), kk, out=row_start)
        played = ws.vec("played", count, np.intp)
        np.add(row_start, loc, out=played)
        pos = self._rows(self._pos, slots)
        played_slot = pos.reshape(-1)[played]

        gathered = self._rows(self._probs, slots)
        played_prob = gathered.reshape(-1)[played]
        weight = ws.vec("weight", count, np.float64)
        np.multiply(normalized, eps, out=weight)
        np.divide(weight, played_prob, out=weight)
        np.divide(weight, scale, out=weight)
        np.multiply(gathered, weight[:, None], out=gathered)
        # Rank-one update of the played arm's column of S, which is its
        # storage row of the block: move the increments into storage order
        # (rank r to slot pos[r]) and add them to that row as one item.
        idx = ws.rows("idx", count, kk, np.intp)
        np.add(row_start[:, None], pos, out=idx)
        stored = ws.rows("stored", count, kk, self._dtype)
        stored.reshape(-1)[idx] = gathered
        flat_rows = self._s.reshape(-1, kk)
        row_idx = ws.vec("row_idx", count, np.intp)
        np.multiply(slots, kk, out=row_idx)
        row_idx += played_slot
        acc = _gather(flat_rows, row_idx, item)
        acc += stored
        _items(flat_rows, item)[row_idx] = _items(acc, item)

        # Tracked regret row of the played action (Eq. 3-6, row j = a_i):
        # rank r is the block entry (pos[r], played slot), one entry from
        # each storage row, strided as in the dense kernel.
        base = ws.vec("q_base", count, np.intp)
        np.multiply(slots, kk * kk, out=base)
        base += played_slot
        np.multiply(pos, kk, out=idx)
        idx += base[:, None]
        q = self._s.reshape(-1)[idx]
        q_flat = q.reshape(-1)
        diag = q_flat[played]
        q -= diag[:, None]
        q *= scale[:, None]
        np.maximum(q, 0.0, out=q)
        q_flat[played] = 0.0
        _items(self._last_played_regrets, item)[slots] = _items(q, item)

        # Probability update (Algorithm 2) over the tracked arms; every
        # untracked arm lands exactly on the exploration floor delta / H,
        # so the tail bucket's mass is the constant (H - k) * delta / H.
        cap = 1.0 / (self._h - 1)
        np.multiply(q, (1.0 - self._delta) / self._mu, out=q)
        np.minimum(q, (1.0 - self._delta) * cap, out=q)
        q += self._delta / self._h
        q_flat[played] = 0.0
        if self._tail_count:
            q_flat[played] = 1.0 - self._tail_mass - q.sum(axis=1)
        else:
            q_flat[played] = 1.0 - q.sum(axis=1)
        _items(self._probs, item)[slots] = _items(q, item)
        if self._tail_count:
            self._tail_prob[slots] = self._tail_mass

        # Fold nearly-underflowed scales back into the stored blocks.
        tiny = ws.vec("tiny", count, np.bool_)
        np.less(scale, self._scale_floor, out=tiny)
        if tiny.any():
            idx = slots[tiny]
            self._s[idx] *= self._scale[idx][:, None, None]
            self._scale[idx] = 1.0

        if self._reselect_every and self._tail_count:
            due = self._stages[slots] % self._reselect_every == 0
            if np.any(due):
                self._reselect(slots[due])

    # ------------------------------------------------------------------
    # Whole-population API (tests / bare repeated-game use)
    # ------------------------------------------------------------------

    def act_all(self) -> np.ndarray:
        """Sample one action per peer from the current mixed strategies."""
        return self.act_slots(self._peer_index)

    def observe_all(self, actions: np.ndarray, utilities: np.ndarray) -> None:
        """Batch regret + probability update for one stage."""
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        if actions.shape != (self._n,) or utilities.shape != (self._n,):
            raise ValueError("actions and utilities must both have shape (N,)")
        self.observe_slots(self._peer_index, actions, utilities)
        self._stage += 1
