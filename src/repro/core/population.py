"""Vectorized population of regret-tracking learners.

Per-object learners (one Python object per peer) are convenient but slow
for the paper's large-scale scenario (Fig. 1: hundreds of peers, thousands
of stages).  :class:`LearnerPopulation` carries the whole population's state
in a few arrays —

* ``S``  of shape ``(N, H, H)`` — every peer's normalized regret accumulator,
* ``probs`` of shape ``(N, H)`` — every peer's mixed strategy,
* ``scale`` of shape ``(N,)`` — a lazy decay factor (see below),
* per-peer RNG streams collapsed into one generator —

and advances all peers per stage with a handful of numpy operations.  The
dynamics are *identical* to ``N`` independent
:class:`repro.core.r2hs.R2HSLearner` objects (asserted in the tests); only
the arithmetic is batched.  With a constant step size the recursion equals
the literal RTHS history sums (Algorithm 1) too — the exact/recursive
equivalence asserted in ``tests/core/test_proxy_regret.py`` — so this one
class is the vectorized form of both RTHS and R2HS.

**Lazy decay.**  The naive batched update rescales the whole ``(N, H, H)``
tensor by ``(1 - eps)`` every stage — O(N·H²) memory traffic that dominates
large runs.  We instead store ``S = scale ⊙ S_stored`` and fold the decay
into the per-peer scalar ``scale``; a stage then touches only the played
column and row: O(N·H).  ``scale`` is renormalized into ``S_stored`` long
before it can underflow.

**Layout.**  The accumulator is stored *column-major per peer*:
``_s[i, k, j]`` holds ``S_i(j, k)``.  The hot write (the rank-one update to
column ``a_i``) then lands on a contiguous row of the stored tensor, while
the hot read (regret row ``j = a_i``) becomes a constant-stride gather the
hardware prefetcher handles — about 3× faster per stage at 10k × 100 than
the row-major layout, where the scattered read-modify-write dominates.

**Narrow rows.**  With a few arms per channel a row is a handful of
floats, and numpy's cost per row — not the arithmetic — sets the price of
a stage.  Three measures keep it down without changing a float operation.
Whole rows (of ``probs``, the played-regret rows and the stored tensor's
rank-one rows) are gathered and scattered through a view with one opaque
``H * itemsize``-byte item per row, so each row moves as one item of a
1-D fancy index instead of as a strided sub-array; every ``(row, played
action)`` entry of a block's buffers is reached through one flat position
computed once per block.  Below ``_NARROW_WIDTH`` arms the row sum, the
strategy prefix sum, the regret-row gather index, the act threshold count
and the three ``(k, 1)`` broadcasts of a stage (the rank-one weight, the
diagonal and the lazy scale) run as a loop over columns, one whole-block
numpy call per column.  The switch sits at 8 because numpy adds up a row
of fewer than 8 items left to right — the same float sequence as the
column loop (pinned in ``tests/core/test_kernel_reference.py``) — and
from 8 items on sums pairwise, so wider rows keep the axis-1 calls.  The
broadcasts are elementwise, so their column form changes no float at any
width.  And gathers are plain fancy indexes (``a[idx]``): numpy's
``take`` into an ``out`` buffer, in its default bounds-checked mode,
gathers into a hidden temporary and copies that into ``out`` only once
every index has passed, one copy more, and its other modes clip or wrap
a bad index instead of refusing it.

**Strategy CDF.**  ``act_slots`` prefix-sums, left to right, the
strategy rows it gathers, so no CDF is stored: each acting row is summed
once a round either way, and updates, resets and growth write one array
fewer.

**Slot API.**  ``act_slots`` / ``observe_slots`` / ``reset_slots`` /
``ensure_capacity`` advance an arbitrary *subset* of rows, which is what
:mod:`repro.runtime` needs to host churning populations (a freed slot is
reset and handed to the next arrival).  The step is one constant ``eps``
for every slot, so a slot needs no stage counter: a reset row is exactly
a fresh learner.  ``act_slots`` and ``observe_slots`` refuse a slot
outside ``[0, N)`` with an ``IndexError`` before any state changes.  The
classic whole-population API (``act_all`` / ``observe_all`` / ``run``)
is a thin wrapper over the slot API.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.probability import default_mu
from repro.game.repeated_game import CapacityProcess, Trajectory
from repro.util.rng import Seedish, as_generator
from repro.util.validation import (
    require_in_closed_unit_interval,
    require_positive,
    require_positive_int,
)

# Renormalize a slot's lazy scale into its stored tensor below this value.
# With eps = 0.05 it triggers roughly every 4500 stages — far from the
# ~1e-308 underflow edge, and amortized O(H²/4500) per slot per stage.
_SCALE_FLOOR = 1e-100

# float32 storage holds entries of magnitude ~1/scale, so the renorm must
# fire long before 1/scale approaches float32's ~3.4e38 overflow edge.  At
# 1e-12 the stored tensor stays within ~1e14 of unit scale (7 significant
# digits of float32 leave the *relative* regret error at the 1e-7 level —
# rescaling preserves relative error), and with eps = 0.05 the renorm
# triggers roughly every 540 stages: amortized O(H²/540) per slot.
_SCALE_FLOOR32 = 1e-12

# Stage updates run in blocks of this many slots so the ~10 per-stage
# (block, H) temporaries stay cache-resident instead of streaming through
# DRAM (measurably faster from ~50k touched elements per pass up).
_OBSERVE_BLOCK = 4096

# Elements (rows × action-set width) a single observe pass targets.  For
# narrow action sets the fixed row block would leave passes tiny and
# dispatch-bound (at H = 2 a 4096-row pass moves only 64 KiB), so blocks
# widen to keep per-pass temporaries at the same ~2 MiB cache budget the
# 4096-row block was sized for at H = 64.
_OBSERVE_TARGET_ELEMS = _OBSERVE_BLOCK * 64

# Rows narrower than this run their per-row reductions column by column
# (see "Narrow rows" above).  numpy's summation rule fixes the value; it
# is not a tuning knob.
_NARROW_WIDTH = 8


def _require_step(epsilon: float) -> float:
    """``epsilon`` as a float if it is a valid constant step in ``(0, 1]``."""
    epsilon = require_in_closed_unit_interval(epsilon, "epsilon")
    if epsilon == 0:
        raise ValueError("epsilon must be strictly positive")
    return epsilon


def _items(rows: np.ndarray, item: np.dtype) -> np.ndarray:
    """``rows`` as a 1-D array holding one ``item`` per row.

    ``rows`` is C-contiguous along its last axis and ``item`` is a void
    dtype exactly one row wide, so the view aliases the same bytes.
    """
    return rows.view(item).reshape(-1)


def _gather(rows: np.ndarray, slots: np.ndarray, item: np.dtype) -> np.ndarray:
    """Rows ``slots`` of the 2-D ``rows``, each moved as one ``item``,
    into a fresh C-contiguous array."""
    return _items(rows, item)[slots].view(rows.dtype).reshape(-1, rows.shape[1])


def _prefix_sums(rows: np.ndarray) -> np.ndarray:
    """``rows`` prefix-summed in place, left to right along each row
    (narrow rows column by column, as ``np.cumsum`` adds)."""
    if rows.shape[1] < _NARROW_WIDTH:
        for j in range(1, rows.shape[1]):
            rows[:, j] += rows[:, j - 1]
    else:
        np.cumsum(rows, axis=1, out=rows)
    return rows


def _require_slots(slots: np.ndarray, capacity: int) -> None:
    """Refuse any slot outside ``[0, capacity)``, before state changes."""
    if slots.min(initial=0) < 0 or slots.max(initial=0) >= capacity:
        raise IndexError(f"slots must lie in [0, {capacity})")


def _grown(array: np.ndarray, capacity: int, fill=None) -> np.ndarray:
    """``array`` extended to ``capacity`` rows, the new rows set to ``fill``
    (zero when ``None``; a row broadcasts).

    The result comes from ``np.zeros``, whose pages the kernel commits
    only when they are first written, and only the old rows are copied
    in.  So growing a zero-filled array writes just the rows in use,
    where a concatenate with a zero block would write every byte.
    """
    out = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    out[: array.shape[0]] = array
    if fill is not None:
        out[array.shape[0]:] = fill
    return out


def _observe_block_rows(width: int) -> int:
    """Rows per observe pass for the given action-set width.

    Blocking is bit-identity-safe: every op in the stage update is
    per-row (slots never repeat within a call), so results do not depend
    on where block boundaries fall.
    """
    return max(_OBSERVE_BLOCK, _OBSERVE_TARGET_ELEMS // max(int(width), 1))


class _Scratch:
    """Grow-on-demand reusable buffers, keyed by name.

    The stage update and the action sampler are dispatch- and
    allocation-bound at small action-set widths; routing their
    temporaries through one of these per-population pools removes the
    fresh ``(k, H)`` allocations each call without changing any
    arithmetic.  Buffers only ever grow, and a view of the first ``k``
    rows is handed back, so callers see exactly-sized arrays.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def vec(self, name: str, count: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape[0] < count or buf.dtype != dtype:
            cap = count if buf is None else max(count, buf.shape[0])
            buf = np.empty(cap, dtype=dtype)
            self._bufs[name] = buf
        return buf[:count]

    def rows(self, name: str, count: int, width: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if (
            buf is None
            or buf.shape[0] < count
            or buf.shape[1] != width
            or buf.dtype != dtype
        ):
            cap = count if buf is None else max(count, buf.shape[0])
            buf = np.empty((cap, width), dtype=dtype)
            self._bufs[name] = buf
        return buf[:count]

    def arange(self, count: int) -> np.ndarray:
        buf = self._bufs.get("arange")
        if buf is None or buf.shape[0] < count:
            buf = np.arange(count, dtype=np.intp)
            self._bufs["arange"] = buf
        return buf[:count]


class LearnerPopulation:
    """``N`` regret-tracking learners advanced in lock-step with numpy ops.

    Parameters
    ----------
    num_peers, num_helpers:
        Population and action-set sizes.
    epsilon:
        Constant tracking step size, in ``(0, 1]``.
    mu, delta, u_max:
        As in :class:`repro.core.regret_learner.RegretLearner`; ``mu`` is in
        normalized utility units.
    rng:
        One generator drives the whole population (actions are sampled as a
        single ``(N,)`` uniform draw per stage).
    dtype:
        Storage dtype of the regret tensor, strategies and played-regret
        rows (``numpy.float64`` default).  ``numpy.float32`` halves the
        memory traffic of the stage update — the dominant cost at scale —
        at ~1e-7 relative arithmetic error per stage (see the float32
        equivalence test for the drift this implies over long runs).  The
        lazy-decay ``scale`` vector stays float64 either way (it is O(N)
        and carries the accumulated forgetting factor), and the renorm
        floor rises so the stored tensor never overflows float32.
    """

    def __init__(
        self,
        num_peers: int,
        num_helpers: int,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
        rng: Seedish = None,
        dtype=np.float64,
    ) -> None:
        self._n = require_positive_int(num_peers, "num_peers")
        self._h = require_positive_int(num_helpers, "num_helpers")
        if self._h < 2:
            raise ValueError("need at least two helpers")
        if not 0 < delta < 1:
            raise ValueError("delta must lie strictly in (0, 1)")
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
        # Transposed storage: _s[i, k, j] = S_i(j, k); see module docstring.
        self._s = np.zeros((self._n, self._h, self._h), dtype=self._dtype)
        self._scale = np.ones(self._n)
        self._probs = np.full((self._n, self._h), 1.0 / self._h, dtype=self._dtype)
        self._stage = 0
        self._peer_index = np.arange(self._n)
        self._last_played_regrets = np.zeros((self._n, self._h), dtype=self._dtype)
        # Flat offsets of column j within one (H, H) block (see the q
        # gather in _observe_block).
        self._col_offsets = np.arange(self._h, dtype=np.intp) * self._h
        # One opaque item per row, for whole-row gathers and scatters.
        self._item = np.dtype((np.void, self._h * self._dtype.itemsize))
        self._scratch = _Scratch()

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
    def stage(self) -> int:
        """Whole-population stages completed (``observe_all`` calls)."""
        return self._stage

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the regret tensor and strategies."""
        return self._dtype

    def strategies(self) -> np.ndarray:
        """All mixed strategies, shape ``(N, H)`` (copy)."""
        return self._probs.copy()

    def regret_matrices(self) -> np.ndarray:
        """All proxy-regret matrices ``Q``, shape ``(N, H, H)``."""
        s = (self._s * self._scale[:, None, None]).transpose(0, 2, 1)
        diag = np.einsum("ijj->ij", s)
        q = np.clip(s - diag[:, :, None], 0.0, None)
        idx = np.arange(self._h)
        q[:, idx, idx] = 0.0
        return q

    def max_regrets(self) -> np.ndarray:
        """Per-peer maximum pairwise regret, shape ``(N,)``."""
        return self.regret_matrices().max(axis=(1, 2))

    def worst_player_regret(self) -> float:
        """``max_i max_k Q_i(a_i^n, k)`` — the Fig. 1 quantity.

        The regret of the worst player *at its current play*: the largest
        estimated gain any peer attributes to switching away from the
        action it just used.  This is the row of ``Q`` that actually drives
        the probability update; it decays to the tracking noise floor as
        play converges to the CE set.  (Rows of rarely-played actions stay
        noisy by construction — the importance weights divide by small
        probabilities — so the full-matrix max of :meth:`max_regrets` is
        not the convergence diagnostic.)  Zero before any slot has
        observed.
        """
        return float(self._last_played_regrets.max())

    def played_regrets(self) -> np.ndarray:
        """Per-peer regret rows of the last played actions, shape ``(N, H)``."""
        return self._last_played_regrets.copy()

    # ------------------------------------------------------------------
    # Slot management (used by repro.runtime banks)
    # ------------------------------------------------------------------

    def ensure_capacity(self, capacity: int) -> None:
        """Grow the population to at least ``capacity`` slots.

        New slots start fresh (uniform strategy, zero regret), byte for
        byte as :meth:`reset_slots` leaves a slot, so a bank hands them
        out without a reset.  Existing slots keep their state and
        indices.  Only the old slots are copied: the new slots' share of
        the ``(N, H, H)`` tensor stays unwritten, and so not resident,
        until a stage first updates it.
        """
        if capacity <= self._n:
            return
        self._s = _grown(self._s, capacity)
        self._scale = _grown(self._scale, capacity, 1.0)
        self._probs = _grown(self._probs, capacity, 1.0 / self._h)
        self._last_played_regrets = _grown(self._last_played_regrets, capacity)
        self._n = int(capacity)
        self._peer_index = np.arange(self._n)

    def reset_slots(self, slots) -> None:
        """Reinitialize ``slots`` to the fresh-learner state.

        ``slots`` is one slot index or an index array; one index (a
        joining peer's row) is served by basic indexing, with no index
        array built.
        """
        if not isinstance(slots, (int, np.integer)):
            slots = np.asarray(slots, dtype=np.intp)
        self._s[slots] = 0.0
        self._scale[slots] = 1.0
        self._probs[slots] = 1.0 / self._h
        self._last_played_regrets[slots] = 0.0

    def act_slots(
        self, slots: np.ndarray, draws: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Sample one action per listed slot (inverse-CDF, one uniform draw
        per slot).

        ``draws`` optionally supplies the per-slot uniforms instead of
        pulling them from the population's own generator — the hook the
        channel-grouped engine uses to fuse many channels' updates into
        one kernel call while preserving each channel's RNG stream
        exactly (see :mod:`repro.runtime.grouped_bank`).  The inversion
        arithmetic is identical either way.
        """
        slots = np.asarray(slots, dtype=np.intp)
        _require_slots(slots, self._n)
        k = slots.shape[0]
        h = self._h
        ws = self._scratch
        cdf = _prefix_sums(_gather(self._probs, slots, self._item))
        if draws is None:
            draws = self._rng.random(k)
        else:
            draws = np.asarray(draws, dtype=float)
            if draws.shape != (k,):
                raise ValueError("draws must supply one uniform per slot")
        if h < _NARROW_WIDTH:
            actions = np.zeros(k, dtype=np.int_)
            below = ws.vec("act_below_column", k, np.bool_)
            for j in range(h):
                np.less(cdf[:, j], draws, out=below)
                actions += below
        else:
            below = ws.rows("act_below", k, h, np.bool_)
            np.less(cdf, draws[:, None], out=below)
            actions = below.sum(axis=1)
        return np.minimum(actions, h - 1)

    def observe_slots(
        self, slots: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        """Regret + probability update for the listed slots only.

        ``slots`` must not contain duplicates (each peer plays once per
        round); callers in :mod:`repro.runtime` guarantee this by
        construction.
        """
        slots = np.asarray(slots, dtype=np.intp)
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        k = slots.shape[0]
        if actions.shape != (k,) or utilities.shape != (k,):
            raise ValueError("slots, actions and utilities must align")
        _require_slots(slots, self._n)
        if k == 0:
            return
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self._h:
            raise ValueError("actions out of range")
        block = _observe_block_rows(self._h)
        if k > block:
            for start in range(0, k, block):
                stop = start + block
                self._observe_block(
                    slots[start:stop], actions[start:stop], utilities[start:stop]
                )
            return
        self._observe_block(slots, actions, utilities)

    def _observe_block(
        self, slots: np.ndarray, actions: np.ndarray, utilities: np.ndarray
    ) -> None:
        k = slots.shape[0]
        h = self._h
        ws = self._scratch
        eps = self._epsilon
        normalized = np.divide(
            utilities, self._u_max, out=ws.vec("norm", k, np.float64)
        )

        # Eq. (3-5), batched with lazy decay: the (1 - eps) forgetting
        # factor accumulates in `scale`, the rank-one column update lands
        # in the stored tensor pre-divided by it.  In the transposed
        # storage, column a_i of S is the contiguous row _s[i, a_i, :].
        # (Index and weight temporaries live in reused scratch buffers —
        # at scale the round cost is memory traffic and numpy dispatch,
        # not flops.)
        decay = 1.0 - eps
        if decay < self._scale_floor:
            # eps ≈ 1 erases all history: the recursion degenerates to
            # S = eps * increment.  Reset the slots instead of zeroing
            # `scale`, which the weight below divides by.
            self._s[slots] = 0.0
            self._scale[slots] = 1.0
            decay = 1.0
        scale = self._scale[slots]
        scale *= decay
        self._scale[slots] = scale
        item = self._item
        narrow = h < _NARROW_WIDTH
        # Flat position of each row's played entry in a (k, H) buffer.
        played = ws.vec("played", k, np.intp)
        np.multiply(ws.arange(k), h, out=played)
        played += actions
        gathered = _gather(self._probs, slots, item)
        played_prob = gathered.reshape(-1)[played]
        weight = ws.vec("weight", k, np.float64)
        np.multiply(normalized, eps, out=weight)
        np.divide(weight, played_prob, out=weight)
        np.divide(weight, scale, out=weight)
        if narrow:
            for j in range(h):
                gathered[:, j] *= weight
        else:
            gathered *= weight[:, None]
        # Row a_i of peer i's stored block is row i*H + a_i of this view.
        flat_rows = self._s.reshape(-1, h)
        row_idx = ws.vec("row_idx", k, np.intp)
        np.multiply(slots, h, out=row_idx)
        row_idx += actions
        acc = _gather(flat_rows, row_idx, item)
        acc += gathered
        _items(flat_rows, item)[row_idx] = _items(acc, item)

        # Regret rows for the played actions (Eq. 3-6, row j = a_i);
        # S(a_i, k) over k is the strided column _s[i, :, a_i], gathered
        # through precomputed flat offsets (cheaper than the mixed
        # advanced-index form).
        q_idx = ws.rows("q_idx", k, h, np.intp)
        base = ws.vec("q_base", k, np.intp)
        np.multiply(slots, h * h, out=base)
        base += actions
        if narrow:
            for j in range(h):
                np.add(base, j * h, out=q_idx[:, j])
        else:
            np.add(base[:, None], self._col_offsets, out=q_idx)
        q = self._s.reshape(-1)[q_idx]
        q_flat = q.reshape(-1)
        diag = q_flat[played]
        if narrow:
            for j in range(h):
                column = q[:, j]
                column -= diag
                column *= scale
        else:
            q -= diag[:, None]
            q *= scale[:, None]
        np.maximum(q, 0.0, out=q)
        q_flat[played] = 0.0
        _items(self._last_played_regrets, item)[slots] = _items(q, item)

        # Probability update (Algorithm 2), fused in place:
        # min(q/mu, cap)*(1-delta) + delta/H.
        cap = 1.0 / (h - 1)
        np.multiply(q, (1.0 - self._delta) / self._mu, out=q)
        np.minimum(q, (1.0 - self._delta) * cap, out=q)
        q += self._delta / self._h
        q_flat[played] = 0.0
        if narrow:
            total = np.add(q[:, 0], q[:, 1], out=ws.vec("total", k, self._dtype))
            for j in range(2, h):
                total += q[:, j]
        else:
            total = q.sum(axis=1)
        q_flat[played] = 1.0 - total
        _items(self._probs, item)[slots] = _items(q, item)

        # Fold nearly-underflowed scales back into the stored tensors.
        tiny = ws.vec("tiny", k, np.bool_)
        np.less(scale, self._scale_floor, out=tiny)
        if tiny.any():
            idx = slots[tiny]
            self._s[idx] *= self._scale[idx][:, None, None]
            self._scale[idx] = 1.0

    # ------------------------------------------------------------------
    # Whole-population dynamics (classic API)
    # ------------------------------------------------------------------

    def act_all(self) -> np.ndarray:
        """Sample one action per peer from the current mixed strategies."""
        return self.act_slots(self._peer_index)

    def observe_all(self, actions: np.ndarray, utilities: np.ndarray) -> None:
        """Batch regret + probability update for one stage.

        ``actions`` and ``utilities`` are the per-peer played helpers and
        realized rates (raw units; normalization happens here).
        """
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        if actions.shape != (self._n,) or utilities.shape != (self._n,):
            raise ValueError("actions and utilities must both have shape (N,)")
        self.observe_slots(self._peer_index, actions, utilities)
        self._stage += 1

    def run(
        self,
        capacity_process: CapacityProcess,
        num_stages: int,
        stage_callback: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> Trajectory:
        """Play ``num_stages`` stages of the helper-selection game.

        Semantics match :class:`repro.game.repeated_game.RepeatedGameDriver`
        with even capacity splitting; returns the same dense
        :class:`~repro.game.repeated_game.Trajectory`.
        """
        if num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        if capacity_process.num_helpers != self._h:
            raise ValueError(
                f"capacity process has {capacity_process.num_helpers} helpers, "
                f"population expects {self._h}"
            )
        capacities = np.empty((num_stages, self._h))
        actions = np.empty((num_stages, self._n), dtype=int)
        loads = np.empty((num_stages, self._h), dtype=int)
        utilities = np.empty((num_stages, self._n))
        for t in range(num_stages):
            caps = np.asarray(capacity_process.capacities(), dtype=float)
            acts = self.act_all()
            counts = np.bincount(acts, minlength=self._h)
            utils = caps[acts] / counts[acts]
            self.observe_all(acts, utils)
            capacities[t] = caps
            actions[t] = acts
            loads[t] = counts
            utilities[t] = utils
            if stage_callback is not None:
                stage_callback(t, utils)
            capacity_process.advance()
        return Trajectory(
            capacities=capacities, actions=actions, loads=loads, utilities=utilities
        )
