"""Pre-rewrite reference bit-identity for the fused learner kernels.

The kernel rewrites (reused scratch buffers, whole-row item gathers,
narrow-row column loops, fused decay/scatter) promised **bit identity**
with the arithmetic they replaced.  ``_ReferenceLearner`` below is that
pre-rewrite arithmetic transcribed verbatim — fresh temporaries each
call, one cumsum per act.
Each kernel runs at the tracking step ``eps = 0.05`` and at ``eps = 1``,
the step that wipes all history every stage (the lazy-decay wipe path).
The property tests drive it and :class:`LearnerPopulation` through the same
random operation sequences (observes, churn resets, capacity growth)
with shared explicit draws and demand byte equality of every state
array.  ``_ReferenceTopK`` does the same for the top-k kernel at
``k < H``: it is the sorted-block layout that re-sorted each ``(k, k)``
block on every promotion and re-selection, before blocks were indexed
by storage slot; it keeps a maintained CDF, which the kernel does not
store, so every step checks the kernel's act-time prefix sums against it
through the actions.
Plus: blocking invariance (observe block boundaries must not leak into
results) for the dense and top-k kernels, and the numpy summation order
the narrow-row column loops rely on.
"""

import numpy as np
import pytest

import repro.core.population as population_module
from repro.core.population import (
    _SCALE_FLOOR,
    _SCALE_FLOOR32,
    LearnerPopulation,
)
from repro.core.probability import default_mu
from repro.core.sparse_population import TopKPopulation

U_MAX = 900.0


class _ReferenceLearner:
    """The pre-rewrite dense kernels, verbatim.

    Allocation style is the original's (fancy-index copies, fresh
    temporaries); the arithmetic — lazy decay with the wipe/renorm
    floors, rank-one scatter, Algorithm-2 probability update — is
    transcribed op for op so any float reordering in the rewritten
    kernels shows up as a byte difference.
    """

    def __init__(self, num_peers, num_helpers, epsilon=0.05, mu=None,
                 delta=0.1, u_max=1.0, dtype=np.float64):
        self._n = int(num_peers)
        self._h = int(num_helpers)
        self._epsilon = float(epsilon)
        self._mu = float(mu if mu is not None else default_mu(num_helpers))
        self._delta = float(delta)
        self._u_max = float(u_max)
        self._dtype = np.dtype(dtype)
        self._scale_floor = (
            _SCALE_FLOOR32 if self._dtype == np.dtype(np.float32) else _SCALE_FLOOR
        )
        self._s = np.zeros((self._n, self._h, self._h), dtype=self._dtype)
        self._scale = np.ones(self._n)
        self._probs = np.full((self._n, self._h), 1.0 / self._h, dtype=self._dtype)
        self._last_played_regrets = np.zeros((self._n, self._h), dtype=self._dtype)

    def ensure_capacity(self, capacity):
        if capacity <= self._n:
            return
        old = self._n
        extra = capacity - old
        self._s = np.concatenate(
            [self._s, np.zeros((extra, self._h, self._h), dtype=self._dtype)]
        )
        self._scale = np.concatenate([self._scale, np.ones(extra)])
        self._probs = np.concatenate(
            [self._probs, np.full((extra, self._h), 1.0 / self._h, dtype=self._dtype)]
        )
        self._last_played_regrets = np.concatenate(
            [self._last_played_regrets, np.zeros((extra, self._h), dtype=self._dtype)]
        )
        self._n = int(capacity)

    def reset_slots(self, slots):
        slots = np.asarray(slots, dtype=np.intp)
        self._s[slots] = 0.0
        self._scale[slots] = 1.0
        self._probs[slots] = 1.0 / self._h
        self._last_played_regrets[slots] = 0.0

    def act_slots(self, slots, draws):
        slots = np.asarray(slots, dtype=np.intp)
        cdf = self._probs[slots]
        np.cumsum(cdf, axis=1, out=cdf)
        draws = np.asarray(draws, dtype=float)
        actions = (cdf < draws[:, None]).sum(axis=1)
        return np.minimum(actions, self._h - 1)

    def observe_slots(self, slots, actions, utilities):
        slots = np.asarray(slots, dtype=np.intp)
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        k = slots.shape[0]
        eps = self._epsilon
        normalized = utilities / self._u_max

        decay = 1.0 - eps
        if decay < self._scale_floor:
            self._s[slots] = 0.0
            self._scale[slots] = 1.0
            decay = 1.0
        self._scale[slots] *= decay
        scale = self._scale[slots]
        row_index = np.arange(k)
        gathered = self._probs[slots]
        played_prob = gathered[row_index, actions]
        weight = eps * normalized / played_prob / scale
        np.multiply(gathered, weight[:, None], out=gathered)
        flat_rows = self._s.reshape(self._n * self._h, self._h)
        flat_rows[slots * self._h + actions] += gathered

        q = self._s[slots, :, actions]
        diag = self._s[slots, actions, actions]
        q -= diag[:, None]
        q *= scale[:, None]
        np.maximum(q, 0.0, out=q)
        q[row_index, actions] = 0.0
        self._last_played_regrets[slots] = q

        cap = 1.0 / (self._h - 1)
        np.multiply(q, (1.0 - self._delta) / self._mu, out=q)
        np.minimum(q, (1.0 - self._delta) * cap, out=q)
        q += self._delta / self._h
        q[row_index, actions] = 0.0
        q[row_index, actions] = 1.0 - q.sum(axis=1)
        self._probs[slots] = q

        tiny = scale < self._scale_floor
        if np.any(tiny):
            idx = slots[tiny]
            self._s[idx] *= self._scale[idx][:, None, None]
            self._scale[idx] = 1.0


def random_ops(rng, initial_peers, rounds, *, churn=True):
    """A reproducible operation script both implementations replay."""
    ops = []
    n = initial_peers
    for _ in range(rounds):
        k = int(rng.integers(1, n + 1))
        slots = rng.choice(n, size=k, replace=False)
        ops.append(("step", slots, rng.random(k), rng.random(k) * U_MAX))
        if churn and rng.random() < 0.3:
            m = int(rng.integers(1, max(2, n // 8)))
            ops.append(("reset", rng.choice(n, size=m, replace=False)))
        if churn and rng.random() < 0.15:
            n += int(rng.integers(1, 9))
            ops.append(("grow", n))
    return ops


def replay(pop, ops):
    """Run the op script; returns per-step action arrays."""
    actions_log = []
    for op in ops:
        if op[0] == "step":
            _, slots, draws, utilities = op
            actions = pop.act_slots(slots, draws=draws)
            pop.observe_slots(slots, actions, utilities)
            actions_log.append(actions)
        elif op[0] == "reset":
            pop.reset_slots(op[1])
        else:
            pop.ensure_capacity(op[1])
    return actions_log


def assert_states_identical(pop, ref):
    assert np.array_equal(pop._probs, ref._probs)
    assert np.array_equal(pop._scale, ref._scale)
    assert np.array_equal(pop._s, ref._s)
    assert np.array_equal(pop._last_played_regrets, ref._last_played_regrets)


class TestDenseKernelReference:
    # Both sides of population._NARROW_WIDTH, every narrow width:
    # column-wise row sums, prefix sums, thresholds and (k, 1) broadcasts
    # below it, numpy's axis-1 and broadcast calls from it on.
    @pytest.mark.parametrize(
        "width", [2, 3, 4, 5, 6, 7, 8, 9, 33], ids=lambda w: f"width{w}"
    )
    @pytest.mark.parametrize(
        "dtype,epsilon",
        [
            (np.float64, 0.05),
            (np.float32, 0.05),
            # eps = 1 forgets all history every stage: the wipe path.
            (np.float64, 1.0),
            (np.float32, 1.0),
        ],
        ids=["constant-f64", "constant-f32", "eps1-f64", "eps1-f32"],
    )
    def test_bit_identical_under_churn(self, dtype, epsilon, width):
        kwargs = dict(epsilon=epsilon, u_max=U_MAX, delta=0.1, dtype=dtype)
        pop = LearnerPopulation(40, width, rng=0, **kwargs)
        ref = _ReferenceLearner(40, width, **kwargs)
        ops = random_ops(np.random.default_rng(123), 40, 120)
        a, b = replay(pop, ops), replay(ref, ops)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert_states_identical(pop, ref)

    def test_interleaved_states_identical_every_round(self):
        """Byte equality at every step, not just at the end."""
        pop = LearnerPopulation(30, 5, epsilon=0.05, u_max=U_MAX, rng=0)
        ref = _ReferenceLearner(30, 5, epsilon=0.05, u_max=U_MAX)
        rng = np.random.default_rng(7)
        for _ in range(80):
            ops = random_ops(rng, pop.num_peers, 1)
            replay(pop, ops)
            replay(ref, ops)
            assert_states_identical(pop, ref)


class _ReferenceTopK:
    """The sorted-block top-k kernels, verbatim.

    Every tracked-set change re-sorts the whole ``(k, k)`` block, so
    ``_s[i, c, r]`` always holds ``S_i(row=ids[i, r], col=ids[i, c])`` in
    sorted-arm order.  Allocation style is simplified (fresh temporaries,
    no observe blocking); the arithmetic — lazy decay, promotion with the
    evicted arm's tail-regret sums, the rank-one update, Algorithm 2 and
    popularity re-selection per channel group — is transcribed op for op.
    """

    def __init__(self, num_peers, num_helpers, k, epsilon=0.05, mu=None,
                 delta=0.1, u_max=1.0, dtype=np.float64,
                 reselect_every=32, num_channel_groups=1):
        self._n = int(num_peers)
        self._h = int(num_helpers)
        self._k = min(int(k), self._h)
        self._epsilon = float(epsilon)
        self._mu = float(mu if mu is not None else default_mu(num_helpers))
        self._delta = float(delta)
        self._u_max = float(u_max)
        self._dtype = np.dtype(dtype)
        self._scale_floor = (
            _SCALE_FLOOR32 if self._dtype == np.dtype(np.float32) else _SCALE_FLOOR
        )
        self._reselect_every = int(reselect_every)
        self._num_groups = int(num_channel_groups)
        self._tail_count = self._h - self._k
        self._tail_mass = self._tail_count * self._delta / self._h
        self._ids = np.empty((0, self._k), dtype=np.int32)
        self._s = np.empty((0, self._k, self._k), dtype=self._dtype)
        self._scale = np.empty(0)
        self._probs = np.empty((0, self._k), dtype=self._dtype)
        self._cdf = np.empty((0, self._k), dtype=self._dtype)
        self._tail_prob = np.empty(0)
        self._stages = np.empty(0, dtype=np.int64)
        self._last_played_regrets = np.empty((0, self._k), dtype=self._dtype)
        self._tail_regret = np.empty(0)
        self._slot_group = np.empty(0, dtype=np.int32)
        self._play_ewma = np.zeros((self._num_groups, self._h))
        n, self._n = self._n, 0
        self.ensure_capacity(n)

    def ensure_capacity(self, capacity):
        if capacity <= self._n:
            return
        extra = capacity - self._n
        kk = self._k
        uniform = np.full((extra, kk), 1.0 / self._h, dtype=self._dtype)
        self._ids = np.concatenate(
            [self._ids, np.tile(np.arange(kk, dtype=np.int32), (extra, 1))]
        )
        self._s = np.concatenate(
            [self._s, np.zeros((extra, kk, kk), dtype=self._dtype)]
        )
        self._scale = np.concatenate([self._scale, np.ones(extra)])
        self._probs = np.concatenate([self._probs, uniform])
        self._cdf = np.concatenate([self._cdf, np.cumsum(uniform, axis=1)])
        self._tail_prob = np.concatenate(
            [self._tail_prob, np.full(extra, self._tail_count / self._h)]
        )
        self._stages = np.concatenate([self._stages, np.zeros(extra, dtype=np.int64)])
        self._last_played_regrets = np.concatenate(
            [self._last_played_regrets, np.zeros((extra, kk), dtype=self._dtype)]
        )
        self._tail_regret = np.concatenate([self._tail_regret, np.zeros(extra)])
        self._slot_group = np.concatenate(
            [self._slot_group, np.zeros(extra, dtype=np.int32)]
        )
        self._n = int(capacity)

    def set_slot_groups(self, slots, group):
        self._slot_group[np.asarray(slots, dtype=np.intp)] = int(group)

    def reset_slots(self, slots):
        slots = np.asarray(slots, dtype=np.intp)
        self._ids[slots] = np.arange(self._k, dtype=np.int32)
        self._s[slots] = 0.0
        self._scale[slots] = 1.0
        self._probs[slots] = 1.0 / self._h
        self._cdf[slots] = np.cumsum(np.full(self._k, 1.0 / self._h, dtype=self._dtype))
        self._tail_prob[slots] = self._tail_count / self._h
        self._stages[slots] = 0
        self._last_played_regrets[slots] = 0.0
        self._tail_regret[slots] = 0.0
        self._slot_group[slots] = 0

    def act_slots(self, slots, draws):
        slots = np.asarray(slots, dtype=np.intp)
        draws = np.asarray(draws, dtype=float)
        cdf = self._cdf[slots]
        local = (cdf < draws[:, None]).sum(axis=1)
        if self._tail_count == 0:
            local = np.minimum(local, self._k - 1)
            return self._ids[slots, local].astype(np.int64)
        actions = np.empty(slots.shape[0], dtype=np.int64)
        tracked = local < self._k
        actions[tracked] = self._ids[slots[tracked], local[tracked]]
        u_idx = np.flatnonzero(~tracked)
        us = slots[u_idx]
        residual = draws[u_idx] - cdf[u_idx, -1]
        frac = residual / np.maximum(self._tail_prob[us], 1e-300)
        rank = np.minimum(
            (frac * self._tail_count).astype(np.int64), self._tail_count - 1
        )
        g = np.maximum(rank, 0)
        tids = self._ids[us]
        for j in range(self._k):
            g = g + (tids[:, j] <= g)
        actions[u_idx] = g
        return actions

    def _locate(self, slots, actions):
        return (self._ids[slots] < actions[:, None]).sum(axis=1)

    def _permute_rows(self, slots):
        order = np.argsort(self._ids[slots], axis=1, kind="stable")
        self._ids[slots] = np.take_along_axis(self._ids[slots], order, axis=1)
        self._probs[slots] = np.take_along_axis(self._probs[slots], order, axis=1)
        block = self._s[slots]
        block = np.take_along_axis(block, order[:, :, None], axis=1)
        block = np.take_along_axis(block, order[:, None, :], axis=2)
        self._s[slots] = block
        self._cdf[slots] = np.cumsum(self._probs[slots], axis=1)

    def _promote(self, slots, arms):
        evict = self._probs[slots].argmin(axis=1)
        col_sum = self._s[slots, evict, :].sum(axis=1)
        row_sum = self._s[slots, :, evict].sum(axis=1)
        diag = self._s[slots, evict, evict]
        discarded = (col_sum + row_sum - diag) * self._scale[slots]
        self._tail_regret[slots] += np.maximum(discarded, 0.0)
        arm_prob = self._tail_prob[slots] / max(self._tail_count, 1)
        self._ids[slots, evict] = arms.astype(np.int32)
        self._s[slots, evict, :] = 0.0
        self._s[slots, :, evict] = 0.0
        self._probs[slots, evict] = arm_prob.astype(self._dtype)
        self._permute_rows(slots)

    def _reselect_in(self, slots, play_ewma):
        m = min(8, self._h)
        hot = np.argpartition(play_ewma, self._h - m)[self._h - m:]
        hot = hot[np.argsort(play_ewma[hot])[::-1]]
        hot = hot[play_ewma[hot] > 0.0]
        if not hot.size:
            return
        probs = self._probs[slots]
        weak = probs.argmin(axis=1)
        floor = self._delta / self._h
        swappable = probs[np.arange(slots.shape[0]), weak] <= floor * (1.0 + 1e-9)
        ids = self._ids[slots]
        chosen = np.full(slots.shape[0], -1, dtype=np.int64)
        for arm in hot:
            pos = np.minimum((ids < arm).sum(axis=1), self._k - 1)
            tracked = ids[np.arange(slots.shape[0]), pos] == arm
            chosen[(chosen < 0) & ~tracked] = arm
        pick = np.flatnonzero(swappable & (chosen >= 0))
        ps, ev = slots[pick], weak[pick]
        self._ids[ps, ev] = chosen[pick].astype(np.int32)
        self._s[ps, ev, :] = 0.0
        self._s[ps, :, ev] = 0.0
        self._permute_rows(ps)

    def observe_slots(self, slots, actions, utilities):
        slots = np.asarray(slots, dtype=np.intp)
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        count, kk = slots.shape[0], self._k
        if self._reselect_every and self._tail_count:
            groups = self._slot_group[slots]
            self._play_ewma[np.unique(groups)] *= 1.0 - 0.05
            np.add.at(self._play_ewma, (groups, actions), 0.05)
        self._stages[slots] += 1
        eps = self._epsilon
        normalized = utilities / self._u_max

        decay = 1.0 - eps
        if decay < self._scale_floor:
            self._s[slots] = 0.0
            self._scale[slots] = 1.0
            decay = 1.0
        self._scale[slots] *= decay
        scale = self._scale[slots]
        row_index = np.arange(count)

        loc = self._locate(slots, actions)
        is_tracked = self._ids[slots, np.minimum(loc, kk - 1)] == actions
        untracked = np.flatnonzero(~is_tracked)
        if untracked.size:
            self._promote(slots[untracked], actions[untracked])
            loc[untracked] = self._locate(slots[untracked], actions[untracked])
        loc = np.minimum(loc, kk - 1)

        gathered = self._probs[slots]
        played_prob = gathered[row_index, loc]
        weight = eps * normalized / played_prob / scale
        np.multiply(gathered, weight[:, None], out=gathered)
        flat_rows = self._s.reshape(self._n * kk, kk)
        flat_rows[slots * kk + loc] += gathered

        q = self._s[slots, :, loc]
        diag = self._s[slots, loc, loc]
        q -= diag[:, None]
        q *= scale[:, None]
        np.maximum(q, 0.0, out=q)
        q[row_index, loc] = 0.0
        self._last_played_regrets[slots] = q

        cap = 1.0 / (self._h - 1)
        np.multiply(q, (1.0 - self._delta) / self._mu, out=q)
        np.minimum(q, (1.0 - self._delta) * cap, out=q)
        q += self._delta / self._h
        q[row_index, loc] = 0.0
        if self._tail_count:
            q[row_index, loc] = 1.0 - self._tail_mass - q.sum(axis=1)
            self._tail_prob[slots] = self._tail_mass
        else:
            q[row_index, loc] = 1.0 - q.sum(axis=1)
        self._probs[slots] = q
        self._cdf[slots] = np.cumsum(q, axis=1)

        tiny = scale < self._scale_floor
        if np.any(tiny):
            idx = slots[tiny]
            self._s[idx] *= self._scale[idx][:, None, None]
            self._scale[idx] = 1.0

        if self._reselect_every and self._tail_count:
            due = self._stages[slots] % self._reselect_every == 0
            if np.any(due):
                groups = self._slot_group[slots[due]]
                for g in np.unique(groups):
                    self._reselect_in(slots[due][groups == g], self._play_ewma[g])


def with_channel_groups(ops, rng, initial_peers, num_groups):
    """``ops`` with a ("group", slots, g) op after every op that hands out
    fresh slots (start, resets, growth), drawing each slot's group."""
    if num_groups == 1:
        return list(ops)

    def assign(slots):
        groups = rng.integers(0, num_groups, size=len(slots))
        return [("group", slots[groups == g], g) for g in range(num_groups)]

    out = assign(np.arange(initial_peers))
    n = initial_peers
    for op in ops:
        out.append(op)
        if op[0] == "reset":
            out.extend(assign(op[1]))
        elif op[0] == "grow":
            out.extend(assign(np.arange(n, op[1])))
            n = op[1]
    return out


def sorted_block(pop):
    """A top-k population's block read in sorted-arm order through ``_pos``."""
    pos = pop._pos.astype(np.intp)
    rows = np.take_along_axis(pop._s, pos[:, :, None], axis=1)
    return np.take_along_axis(rows, pos[:, None, :], axis=2)


def assert_bytes_equal(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


class TestTopKKernelReference:
    """Position-mapped top-k kernel == the sorted-block recursion, byte for byte."""

    @pytest.mark.parametrize("groups", [1, 3], ids=lambda g: f"groups{g}")
    @pytest.mark.parametrize("k", [3, 9], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize(
        "dtype,epsilon",
        [
            (np.float64, 0.05),
            (np.float32, 0.05),
            # eps = 1 forgets all history every stage: the wipe path.
            (np.float64, 1.0),
            (np.float32, 1.0),
        ],
        ids=["constant-f64", "constant-f32", "eps1-f64", "eps1-f32"],
    )
    def test_bit_identical_every_step(self, dtype, epsilon, k, groups):
        kwargs = dict(epsilon=epsilon, u_max=U_MAX, delta=0.1, dtype=dtype,
                      reselect_every=4, num_channel_groups=groups)
        pop = TopKPopulation(40, 14, k=k, rng=0, **kwargs)
        ref = _ReferenceTopK(40, 14, k=k, **kwargs)
        rng = np.random.default_rng(17)
        ops = with_channel_groups(random_ops(rng, 40, 200), rng, 40, groups)
        for op in ops:
            if op[0] == "step":
                _, slots, draws, utilities = op
                actions = pop.act_slots(slots, draws=draws)
                assert_bytes_equal(actions, ref.act_slots(slots, draws), "actions")
                pop.observe_slots(slots, actions, utilities)
                ref.observe_slots(slots, actions, utilities)
            elif op[0] == "group":
                pop.set_slot_groups(op[1], op[2])
                ref.set_slot_groups(op[1], op[2])
            else:
                replay(pop, [op])
                replay(ref, [op])
            for name in ("_ids", "_probs", "_tail_prob", "_tail_regret",
                         "_last_played_regrets", "_scale", "_stages"):
                assert_bytes_equal(getattr(pop, name), getattr(ref, name), name)
            assert_bytes_equal(sorted_block(pop), ref._s, "block")
        # The script moves tracked sets through both paths.
        assert pop.promotions > 0 and pop.reselections > 0


def _patched_small_blocks(monkeypatch):
    """Shrink observe blocking so a ~hundred-slot call spans boundaries."""
    monkeypatch.setattr(population_module, "_OBSERVE_BLOCK", 7)
    monkeypatch.setattr(population_module, "_OBSERVE_TARGET_ELEMS", 21)


class TestBlockingInvariance:
    @pytest.mark.parametrize("width", [6, 2], ids=lambda w: f"width{w}")
    def test_dense_results_independent_of_block_boundaries(self, monkeypatch, width):
        build = lambda: LearnerPopulation(90, width, epsilon=0.05, u_max=U_MAX, rng=0)
        ops = random_ops(np.random.default_rng(5), 90, 60)
        pop_default = build()
        log_default = replay(pop_default, ops)
        _patched_small_blocks(monkeypatch)
        pop_small = build()
        log_small = replay(pop_small, ops)
        for x, y in zip(log_default, log_small):
            assert np.array_equal(x, y)
        assert_states_identical(pop_default, pop_small)

    def test_topk_results_independent_of_block_boundaries(self, monkeypatch):
        build = lambda: TopKPopulation(
            90, 12, k=3, epsilon=0.05, u_max=U_MAX, rng=0, reselect_every=8
        )
        ops = random_ops(np.random.default_rng(9), 90, 60)
        pop_default = build()
        log_default = replay(pop_default, ops)
        _patched_small_blocks(monkeypatch)
        pop_small = build()
        log_small = replay(pop_small, ops)
        for x, y in zip(log_default, log_small):
            assert np.array_equal(x, y)
        assert np.array_equal(pop_default._probs, pop_small._probs)
        assert np.array_equal(pop_default._ids, pop_small._ids)
        assert np.array_equal(pop_default._s, pop_small._s)
        assert np.array_equal(pop_default._stages, pop_small._stages)


class TestNarrowRowSums:
    """The numpy behaviour the narrow-row column loops rely on.

    Below ``_NARROW_WIDTH`` the kernels replace ``q.sum(axis=1)`` and
    ``np.cumsum(q, axis=1)`` with loops over columns and promise the
    same bytes.  A numpy release that changes its reduction order fails
    here by name, not only as a kernel byte difference.
    """

    @staticmethod
    def mixed_rows(rng, rows, width, dtype):
        magnitude = 10.0 ** rng.integers(-9, 9, size=(rows, width))
        return (rng.random((rows, width)) * magnitude).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_sums_narrow_rows_left_to_right(self, dtype):
        rng = np.random.default_rng(31)
        # Up to the widest observe block at width 2 (131072 rows), past
        # numpy's 8192-element reduction buffer.
        for rows in (1, 7, 8192, 8193, 131_072):
            for width in range(2, population_module._NARROW_WIDTH):
                q = self.mixed_rows(rng, rows, width, dtype)
                total = q[:, 0] + q[:, 1]
                for j in range(2, width):
                    total += q[:, j]
                assert np.array_equal(q.sum(axis=1), total), (rows, width)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_cumsum_is_the_column_prefix_sum(self, dtype):
        rng = np.random.default_rng(32)
        for width in range(2, population_module._NARROW_WIDTH):
            q = self.mixed_rows(rng, 8193, width, dtype)
            prefix = q.copy()
            for j in range(1, width):
                prefix[:, j] += prefix[:, j - 1]
            assert np.array_equal(np.cumsum(q, axis=1), prefix), width

