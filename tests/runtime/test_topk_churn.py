"""Churn safety of the sparse top-k banks: recycled ``(k,)`` blocks.

Randomized property test (fixed seeds, many trials): peers leave and
rejoin through the free-list, and a recycled row must never leak the
previous occupant's tracked indices, regret block, or strategy — a stale
index would silently route a fresh peer's regret onto arms it never
played.  Run both at the bank level (adversarial acquire/release
interleavings) and through the full system's churn process.
"""

import numpy as np

from repro.runtime import TopKRegretBank, VectorizedStreamingSystem, bank_factory
from repro.spec import ChurnSpec, ExperimentSpec, TopologySpec

U_MAX = 900.0


def fresh_state(bank, rows):
    """Assert ``rows`` carry exactly the fresh-learner sparse state."""
    pop = bank.population
    rows = np.asarray(rows)
    k, h = pop.k, pop.num_helpers
    assert np.array_equal(
        pop.tracked_arms()[rows], np.tile(np.arange(k), (rows.size, 1))
    )
    np.testing.assert_array_equal(pop.tail_regret()[rows], 0.0)
    np.testing.assert_array_equal(pop.slot_stages()[rows], 0)
    np.testing.assert_allclose(pop.strategies()[rows], 1.0 / h, rtol=1e-7)


class TestRecycledBlocksProperty:
    def test_random_churn_interleavings_leave_no_stale_state(self):
        """Property: after any interleaving of acquire / dirty / release,
        a re-acquired row is indistinguishable from a never-used one."""
        rng = np.random.default_rng(1234)
        H, k = 40, 6
        for trial in range(25):
            bank = TopKRegretBank(H, k=k, rng=int(rng.integers(2**31)), u_max=U_MAX)
            live = list(bank.acquire_many(int(rng.integers(5, 40))))
            for _ in range(30):
                op = rng.integers(3)
                if op == 0 and live:  # dirty a random subset with far arms
                    rows = rng.choice(live, size=min(len(live), 8), replace=False)
                    rows = np.asarray(sorted(set(int(r) for r in rows)))
                    arms = rng.integers(k, H, size=rows.size)  # untracked
                    bank.observe(
                        rows, arms, rng.uniform(100.0, 800.0, rows.size)
                    )
                elif op == 1 and live:  # release a random row
                    row = live.pop(int(rng.integers(len(live))))
                    bank.release(row)
                else:  # (re-)acquire: must come back fresh
                    row = bank.acquire()
                    fresh_state(bank, np.array([row]))
                    live.append(row)
            # No two live peers share a row.
            assert len(live) == len(set(live))

    def test_bulk_release_then_bulk_acquire_is_fresh(self):
        bank = TopKRegretBank(30, k=4, rng=9, u_max=U_MAX)
        rows = bank.acquire_many(20)
        # Drive everyone onto high, untracked arms.
        for _ in range(10):
            actions = bank.act(rows)
            caps = np.random.default_rng(0).uniform(500, 900, 30)
            counts = np.bincount(actions, minlength=30)
            bank.observe(rows, actions, caps[actions] / counts[actions])
        assert bank.population.promotions > 0
        for row in rows:
            bank.release(int(row))
        again = bank.acquire_many(20)
        fresh_state(bank, again)

    def test_growth_preserves_existing_sparse_state(self):
        """Free-list exhaustion doubles capacity; surviving rows keep
        their tracked arms and strategies bit-for-bit."""
        bank = TopKRegretBank(25, k=5, rng=3, u_max=U_MAX, initial_rows=8)
        rows = bank.acquire_many(8)
        arms = np.full(8, 20)
        bank.observe(rows, arms, np.full(8, 400.0))
        ids_before = bank.population.tracked_arms()[rows]
        probs_before = bank.population.strategies()[rows]
        bank.acquire_many(50)  # forces _grow_rows via ensure_capacity
        assert np.array_equal(bank.population.tracked_arms()[rows], ids_before)
        assert np.array_equal(bank.population.strategies()[rows], probs_before)


class TestSystemChurnWithTopk:
    def test_no_stale_rows_and_unique_assignment_under_churn(self):
        spec = ExperimentSpec(
            topology=TopologySpec(
                num_peers=60, num_helpers=30, num_channels=2,
                channel_bitrates=100.0,
            ),
            churn=ChurnSpec(
                arrival_rate=2.0, mean_lifetime=20.0,
                initial_peer_lifetimes=True,
            ),
        )
        system = VectorizedStreamingSystem(
            spec,
            bank_factory("r2hs", u_max=U_MAX, bank="topk", topk=5),
            rng=12,
        )
        trace = system.run(200)
        store = system.store
        online = store.online_slots()
        # Bank rows are uniquely assigned within each channel.
        for c, bank in enumerate(system.banks):
            mask = store.channel[online] == c
            rows = store.bank_row[online[mask]]
            assert np.unique(rows).size == rows.size
            ids = bank.population.tracked_arms()[rows]
            # Tracked ids always inside the channel's action set, sorted,
            # unique per row: no stale index leakage across occupants.
            assert ids.min() >= 0 and ids.max() < bank.num_actions
            assert (np.diff(ids, axis=1) > 0).all()
        assert np.all(trace.loads.sum(axis=1) == trace.online_peers)
        # Churn actually cycled slots through the free-list.
        assert store.total_created > spec.topology.num_peers
