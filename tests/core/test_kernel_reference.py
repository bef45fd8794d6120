"""Pre-rewrite reference bit-identity for the fused learner kernels.

The kernel rewrite (preallocated workspaces, maintained strategy CDF,
dense stage → eps table, fused decay/scatter) promised **bit identity**
with the arithmetic it replaced.  ``_ReferenceLearner`` below is that
pre-rewrite arithmetic transcribed verbatim — fresh temporaries each
call, one cumsum per act, per-unique-stage schedule evaluation.  The
property tests drive it and :class:`LearnerPopulation` through the same
random operation sequences (observes, churn resets, capacity growth)
with shared explicit draws and demand byte equality of every state
array.  Plus: blocking invariance (observe block boundaries must not
leak into results) for the dense and top-k kernels, the maintained-CDF
invariant, the numpy summation order the dense kernel's narrow-row
column loops rely on, and the eps-table/schedule equivalence.
"""

import numpy as np
import pytest

import repro.core.population as population_module
from repro.core.population import (
    _SCALE_FLOOR,
    _SCALE_FLOOR32,
    _EpsTable,
    LearnerPopulation,
)
from repro.core.probability import default_mu
from repro.core.schedules import constant_step, harmonic_step, polynomial_step
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
                 delta=0.1, u_max=1.0, schedule=None, dtype=np.float64):
        self._n = int(num_peers)
        self._h = int(num_helpers)
        self._schedule = schedule if schedule is not None else constant_step(epsilon)
        self._constant_eps = getattr(self._schedule, "constant_value", None)
        self._eps_cache = {}
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
        self._stages = np.zeros(self._n, dtype=np.int64)
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
        self._stages = np.concatenate([self._stages, np.zeros(extra, dtype=np.int64)])
        self._last_played_regrets = np.concatenate(
            [self._last_played_regrets, np.zeros((extra, self._h), dtype=self._dtype)]
        )
        self._n = int(capacity)

    def reset_slots(self, slots):
        slots = np.asarray(slots, dtype=np.intp)
        self._s[slots] = 0.0
        self._scale[slots] = 1.0
        self._probs[slots] = 1.0 / self._h
        self._stages[slots] = 0
        self._last_played_regrets[slots] = 0.0

    def act_slots(self, slots, draws):
        slots = np.asarray(slots, dtype=np.intp)
        cdf = self._probs[slots]
        np.cumsum(cdf, axis=1, out=cdf)
        draws = np.asarray(draws, dtype=float)
        actions = (cdf < draws[:, None]).sum(axis=1)
        return np.minimum(actions, self._h - 1)

    def _eps_for(self, stages):
        if self._constant_eps is not None:
            return self._constant_eps
        out = np.empty(stages.shape)
        for value in np.unique(stages):
            n = int(value)
            eps = self._eps_cache.get(n)
            if eps is None:
                eps = float(self._schedule(n))
                self._eps_cache[n] = eps
            out[stages == value] = eps
        return out

    def observe_slots(self, slots, actions, utilities):
        slots = np.asarray(slots, dtype=np.intp)
        actions = np.asarray(actions, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        k = slots.shape[0]
        self._stages[slots] += 1
        eps = self._eps_for(self._stages[slots])
        normalized = utilities / self._u_max

        decay = 1.0 - eps
        wiped = decay < self._scale_floor
        if np.any(wiped):
            wiped_slots = slots if np.ndim(wiped) == 0 else slots[wiped]
            self._s[wiped_slots] = 0.0
            self._scale[wiped_slots] = 1.0
            decay = np.where(wiped, 1.0, decay)
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
    assert np.array_equal(pop._stages, ref._stages)
    assert np.array_equal(pop._probs, ref._probs)
    assert np.array_equal(pop._scale, ref._scale)
    assert np.array_equal(pop._s, ref._s)
    assert np.array_equal(pop._last_played_regrets, ref._last_played_regrets)


class TestDenseKernelReference:
    # Both sides of population._NARROW_WIDTH: column-wise row sums,
    # prefix sums and thresholds below it, numpy's axis-1 calls from it on.
    @pytest.mark.parametrize(
        "width", [2, 3, 6, 7, 8, 9, 33], ids=lambda w: f"width{w}"
    )
    @pytest.mark.parametrize(
        "dtype,make_schedule",
        [
            (np.float64, lambda: constant_step(0.05)),
            (np.float32, lambda: constant_step(0.05)),
            # harmonic's stage-1 eps = 1 exercises the history-wipe path.
            (np.float64, harmonic_step),
            (np.float64, lambda: polynomial_step(0.75, 1.0)),
        ],
        ids=["constant-f64", "constant-f32", "harmonic-f64", "polynomial-f64"],
    )
    def test_bit_identical_under_churn(self, dtype, make_schedule, width):
        kwargs = dict(u_max=U_MAX, delta=0.1, dtype=dtype)
        pop = LearnerPopulation(40, width, schedule=make_schedule(), rng=0, **kwargs)
        ref = _ReferenceLearner(40, width, schedule=make_schedule(), **kwargs)
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


class TestMaintainedCdfInvariant:
    """Every writer of ``_probs`` must refresh the matching CDF rows."""

    def assert_cdf_fresh(self, pop):
        assert np.array_equal(pop._cdf, np.cumsum(pop._probs, axis=1))

    def test_dense_cdf_tracks_probs_exactly(self):
        for width in (6, 2):  # either side of population._NARROW_WIDTH
            pop = LearnerPopulation(40, width, epsilon=0.05, u_max=U_MAX, rng=0)
            rng = np.random.default_rng(21)
            for _ in range(60):
                replay(pop, random_ops(rng, pop.num_peers, 1))
                self.assert_cdf_fresh(pop)

    def test_topk_cdf_tracks_probs_exactly(self):
        pop = TopKPopulation(
            40, 12, k=3, epsilon=0.05, u_max=U_MAX, rng=0, reselect_every=8
        )
        rng = np.random.default_rng(22)
        for _ in range(60):
            replay(pop, random_ops(rng, pop._n, 1))
            self.assert_cdf_fresh(pop)


class TestNarrowRowSums:
    """The numpy behaviour the narrow-row column loops rely on.

    Below ``_NARROW_WIDTH`` the dense kernel replaces ``q.sum(axis=1)``
    and ``np.cumsum(q, axis=1)`` with loops over columns and promises the
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


class TestEpsTable:
    def test_matches_direct_schedule_evaluation(self):
        for schedule in (harmonic_step(), polynomial_step(0.6, 2.0)):
            table = _EpsTable(schedule)
            stages = np.array([1, 5, 3, 200, 1, 77])
            got = table(stages)
            want = np.array([float(schedule(int(n))) for n in stages])
            assert np.array_equal(got, want)
            # Growth keeps earlier entries stable.
            assert np.array_equal(table(stages), want)
            bigger = np.arange(1, 500)
            assert np.array_equal(
                table(bigger), [float(schedule(int(n))) for n in bigger]
            )
