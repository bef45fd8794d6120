"""Sparse top-k regret banks: dense equivalence and approximation bounds.

Two regimes, two contracts:

* ``k >= H`` — :class:`~repro.core.sparse_population.TopKPopulation` and
  :class:`~repro.runtime.TopKRegretBank` must be *bit-identical* to the
  dense population/bank: same RNG consumption, same floating-point
  operation sequence, so identical actions, strategies and system traces.
* ``k < H`` — the sparse dynamics are an approximation; the steady-state
  welfare and the convergence diagnostic must stay within a tolerance of
  the dense run, and the tracked-set mechanics (promotion, the
  aggregated tail bucket, re-selection) must hold their invariants.
"""

import numpy as np
import pytest

from repro.core.population import LearnerPopulation
from repro.core.sparse_population import TopKPopulation
from repro.runtime import TopKRegretBank, VectorizedStreamingSystem, bank_factory
from repro.sim import (
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.spec import ChurnSpec, ExperimentSpec, TopologySpec

U_MAX = 900.0


def drive(population, stages, env_seed=0):
    """Advance a population against a synthetic capacity draw; returns the
    per-stage welfare series."""
    rng = np.random.default_rng(env_seed)
    h = population.num_helpers
    welfare = []
    for _ in range(stages):
        actions = population.act_all()
        caps = rng.uniform(500.0, 900.0, h)
        counts = np.bincount(actions, minlength=h)
        utils = caps[actions] / counts[actions]
        population.observe_all(actions, utils)
        welfare.append(float(utils.sum()))
    return np.asarray(welfare)


class TestFullKBitIdentity:
    """k >= H: the sparse representation is a pure memory layout change."""

    def test_population_actions_and_strategies_identical(self):
        N, H, T = 40, 6, 250
        dense = LearnerPopulation(N, H, u_max=U_MAX, rng=11)
        topk = TopKPopulation(N, H, k=H, u_max=U_MAX, rng=11)
        rng = np.random.default_rng(5)
        for _ in range(T):
            a_dense, a_topk = dense.act_all(), topk.act_all()
            assert np.array_equal(a_dense, a_topk)
            caps = rng.uniform(400.0, 900.0, H)
            counts = np.bincount(a_dense, minlength=H)
            utils = caps[a_dense] / counts[a_dense]
            dense.observe_all(a_dense, utils)
            topk.observe_all(a_topk, utils)
        assert np.array_equal(dense.strategies(), topk.strategies())
        assert topk.promotions == 0
        assert topk.reselections == 0

    def test_k_above_h_clamps(self):
        pop = TopKPopulation(5, 4, k=100, u_max=U_MAX, rng=0)
        assert pop.k == 4

    def test_float32_identity_holds_too(self):
        N, H, T = 30, 5, 150
        dense = LearnerPopulation(N, H, u_max=U_MAX, rng=2, dtype=np.float32)
        topk = TopKPopulation(N, H, k=H, u_max=U_MAX, rng=2, dtype=np.float32)
        rng = np.random.default_rng(9)
        for _ in range(T):
            a_dense, a_topk = dense.act_all(), topk.act_all()
            assert np.array_equal(a_dense, a_topk)
            caps = rng.uniform(400.0, 900.0, H)
            counts = np.bincount(a_dense, minlength=H)
            utils = caps[a_dense] / counts[a_dense]
            dense.observe_all(a_dense, utils)
            topk.observe_all(a_topk, utils)
        assert np.array_equal(dense.strategies(), topk.strategies())

    def test_system_trace_identical(self):
        """Full streaming system, same seed: dense and k=H topk banks
        must produce bit-identical traces."""
        N, H, T = 120, 8, 60
        spec = ExperimentSpec(topology=TopologySpec(
            num_peers=N, num_helpers=H, num_channels=2, channel_bitrates=100.0
        ))
        traces = {}
        for bank in ("dense", "topk"):
            system = VectorizedStreamingSystem(
                spec,
                bank_factory("r2hs", u_max=U_MAX, bank=bank, topk=H),
                rng=7,
            )
            traces[bank] = system.run(T)
        td, tt = traces["dense"], traces["topk"]
        assert np.array_equal(td.loads, tt.loads)
        assert np.array_equal(td.welfare, tt.welfare)
        assert np.array_equal(td.server_load, tt.server_load)
        assert np.array_equal(td.capacities, tt.capacities)
        assert np.array_equal(td.online_peers, tt.online_peers)

    def test_build_population_honors_topk_bank(self):
        """spec.build_population() must return the sparse population for
        bank="topk" — not silently allocate the dense (N, H, H) tensor."""
        spec = ExperimentSpec.from_dict(
            {
                "backend": "vectorized",
                "topology": {"num_peers": 20, "num_helpers": 50},
                "learner": {"name": "r2hs", "bank": "topk", "topk": 8},
            }
        )
        pop = spec.build_population()
        assert isinstance(pop, TopKPopulation)
        assert pop.k == 8
        dense = spec.with_overrides({"learner.bank": "dense"}).build_population()
        assert isinstance(dense, LearnerPopulation)

    def test_spec_layer_topk_equals_dense(self):
        """Through the declarative spec: bank="topk" with k >= per-channel
        H reproduces the dense vectorized run exactly."""
        spec = ExperimentSpec.from_dict(
            {
                "backend": "vectorized",
                "rounds": 40,
                "seed": 3,
                "topology": {
                    "num_peers": 60,
                    "num_helpers": 6,
                    "channel_bitrates": 100.0,
                },
            }
        )
        dense = spec.run()
        topk = spec.with_overrides(
            {"learner.bank": "topk", "learner.topk": 6}
        ).run()
        assert dense.metrics == topk.metrics


class TestSparseApproximation:
    """k < H: controlled drift from the dense dynamics."""

    def test_steady_state_welfare_within_tolerance(self):
        N, H, k, T = 150, 60, 12, 500
        dense = LearnerPopulation(N, H, u_max=U_MAX, rng=1)
        topk = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=1)
        w_dense = drive(dense, T, env_seed=4)
        w_topk = drive(topk, T, env_seed=4)
        tail = slice(T // 2, None)
        ratio = w_topk[tail].mean() / w_dense[tail].mean()
        assert 0.9 < ratio < 1.1
        assert topk.promotions > 0  # sparsity actually exercised

    def test_regret_gap_at_large_h(self):
        """The convergence diagnostic (worst played regret) of the sparse
        bank must land in the same band as dense — mass concentrates on
        the tracked arms, so truncating the tail does not stall
        convergence."""
        N, H, k, T = 100, 120, 16, 500
        dense = LearnerPopulation(N, H, u_max=U_MAX, rng=8)
        topk = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=8)
        drive(dense, T, env_seed=2)
        drive(topk, T, env_seed=2)
        r_dense = dense.worst_player_regret()
        r_topk = topk.worst_player_regret()
        assert r_topk <= max(2.0 * r_dense, 0.05)
        # Strategies concentrate comparably.
        p_dense = dense.strategies().max(axis=1).mean()
        p_topk = topk.strategies().max(axis=1).mean()
        assert abs(p_dense - p_topk) < 0.1

    def test_strategies_sum_to_one_and_tail_is_floor(self):
        N, H, k, T = 50, 40, 8, 200
        pop = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=3, delta=0.1)
        drive(pop, T, env_seed=1)
        dense_strategies = pop.strategies()
        np.testing.assert_allclose(dense_strategies.sum(axis=1), 1.0, rtol=1e-9)
        # Every untracked arm sits exactly on the exploration floor.
        ids = pop.tracked_arms()
        floor = 0.1 / H
        for i in range(0, N, 7):
            untracked = np.setdiff1d(np.arange(H), ids[i])
            np.testing.assert_allclose(
                dense_strategies[i, untracked], floor, rtol=1e-6
            )

    def test_promotion_tracks_played_arm(self):
        """A played untracked arm must be in the tracked set afterwards,
        with the tracked ids still sorted and unique."""
        N, H, k = 8, 30, 4
        pop = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=0)
        slots = np.arange(N)
        # Everyone plays arm 25 — untracked (fresh sets are {0..3}).
        actions = np.full(N, 25)
        pop.observe_slots(slots, actions, np.full(N, 300.0))
        ids = pop.tracked_arms()
        assert (ids == 25).any(axis=1).all()
        for row in ids:
            assert np.array_equal(row, np.sort(row))
            assert np.unique(row).size == k
        assert pop.promotions == N
        # The promoted arm immediately dominates the strategy (the dense
        # regret-matching behaviour: a freshly played arm with an empty
        # regret row keeps ~(1 - delta) of the mass).
        strategies = pop.strategies()
        assert (strategies[:, 25] > 0.5).all()

    def test_tail_regret_diagnostic_accumulates_on_eviction(self):
        N, H, k, T = 30, 50, 4, 300
        pop = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=6)
        drive(pop, T, env_seed=8)
        assert pop.promotions > 0
        tail = pop.tail_regret()
        assert tail.shape == (N,)
        assert (tail >= 0.0).all()

    def test_reselection_prewarm_tracks_hot_arms(self):
        """With re-selection on, globally popular arms spread into
        tracked sets of peers that never played them."""
        N, H, k, T = 120, 80, 6, 300
        pop = TopKPopulation(
            N, H, k=k, u_max=U_MAX, rng=4, reselect_every=16
        )
        drive(pop, T, env_seed=3)
        assert pop.reselections > 0

    def test_reselect_zero_disables(self):
        N, H, k, T = 60, 40, 6, 150
        pop = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=4, reselect_every=0)
        drive(pop, T, env_seed=3)
        assert pop.reselections == 0


class TestBankPlumbing:
    def test_bank_factory_topk_builds_topk_banks(self):
        factory = bank_factory("r2hs", u_max=U_MAX, bank="topk", topk=8)
        bank = factory([40], [np.random.default_rng(0)])
        assert isinstance(bank.population_of(0), TopKPopulation)
        assert bank.num_actions_of(0) == 40
        assert bank.channel_views()[0].k == 8

    def test_bank_factory_rejects_topk_for_baselines(self):
        with pytest.raises(ValueError, match="regret families"):
            bank_factory("uniform", bank="topk")
        with pytest.raises(ValueError, match="regret families"):
            bank_factory("sticky", bank="topk")

    def test_bank_factory_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="dense.*topk"):
            bank_factory("r2hs", bank="csr")

    def test_topk_population_validates_k(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            TopKPopulation(4, 10, k=1)

    def test_memory_footprint_is_k_square_not_h_square(self):
        N, H, k = 64, 512, 16
        pop = TopKPopulation(N, H, k=k, u_max=U_MAX, rng=0, dtype=np.float32)
        dense_bytes = N * H * H * 4
        assert pop.nbytes() < dense_bytes / 100

    def test_nbytes_counts_every_per_slot_array(self):
        # N, k, H and the group count differ, so "first axis of length N"
        # picks out exactly the per-slot arrays, whatever they are named.
        pop = TopKPopulation(
            50, 20, k=4, u_max=U_MAX, rng=0, dtype=np.float32, num_channel_groups=3
        )
        pop.ensure_capacity(57)
        per_slot = [
            value
            for value in vars(pop).values()
            if isinstance(value, np.ndarray) and value.shape[:1] == (57,)
        ]
        assert len(per_slot) >= 11
        assert pop.nbytes() == sum(a.nbytes for a in per_slot)

    def test_acquire_release_recycles_rows(self):
        bank = TopKRegretBank(20, k=4, rng=0, u_max=U_MAX)
        rows = bank.acquire_many(10)
        assert rows.size == 10
        bank.observe(
            rows,
            np.full(10, 15),  # untracked: everyone promotes
            np.full(10, 200.0),
        )
        assert (bank.population.tracked_arms()[rows] == 15).any(axis=1).all()
        for row in rows:
            bank.release(int(row))
        fresh = bank.acquire_many(10)
        ids = bank.population.tracked_arms()[fresh]
        assert np.array_equal(ids, np.tile(np.arange(4), (10, 1)))


class TestDriveRecordedTrace:
    def test_system_run_with_churn_and_topk(self):
        """End-to-end smoke under churn on a recorded environment."""
        H = 24
        shared = record_capacity_trace(paper_bandwidth_process(H, rng=3), 120)
        spec = ExperimentSpec(
            topology=TopologySpec(
                num_peers=80, num_helpers=H, channel_bitrates=100.0
            ),
            churn=ChurnSpec(
                arrival_rate=1.0, mean_lifetime=30.0,
                initial_peer_lifetimes=True,
            ),
        )
        system = VectorizedStreamingSystem(
            spec,
            bank_factory("r2hs", u_max=U_MAX, bank="topk", topk=6),
            rng=5,
            capacity_process=TraceCapacityProcess(shared),
        )
        trace = system.run(100)
        assert np.all(trace.loads.sum(axis=1) == trace.online_peers)
        assert trace.welfare.min() >= 0.0
