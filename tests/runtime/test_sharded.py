"""Bit-identity and containment of the sharded runtime.

The decisive suite for :mod:`repro.runtime.sharded`: under the same
seed, a :class:`ShardedSystem` must produce **the same bytes** as the
single-process system for any shard count — every trace array equal
with ``np.array_equal`` (no tolerance), dense and sparse top-k storage,
the per-channel baselines, with and without churn, per-peer recording.  The containment
half kills live shard workers with ``SIGKILL`` mid-run and demands the
rebuilt worker replay to the exact same trace, both from construction
(``checkpoint_every=0``) and from a checkpoint.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.runtime import (
    PerChannelGroupedBank,
    ShardedSystem,
    VectorizedStreamingSystem,
    bank_factory,
)
from repro.sim import ChurnConfig, SystemConfig
from repro.spec import ExperimentSpec

U_MAX = 900.0

CHURN = ChurnConfig(
    arrival_rate=2.0, mean_lifetime=25.0, initial_peer_lifetimes=True
)


def config_for(**overrides):
    base = dict(
        num_peers=60,
        num_helpers=8,
        num_channels=4,
        channel_bitrates=100.0,
        churn=CHURN,
        channel_switch_rate=0.5,
    )
    base.update(overrides)
    return SystemConfig(**base)


def single(config, *, kind="r2hs", bank="dense", topk=32, seed=42,
           initial_channels=None):
    return VectorizedStreamingSystem(
        config,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk),
        rng=seed,
        initial_channels=initial_channels,
    )


def sharded(config, shards, *, kind="r2hs", bank="dense", topk=32, seed=42,
            initial_channels=None, **kwargs):
    return ShardedSystem(
        config,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk),
        shards=shards,
        rng=seed,
        initial_channels=initial_channels,
        **kwargs,
    )


def assert_traces_identical(ta, tb):
    assert np.array_equal(ta.welfare, tb.welfare)
    assert np.array_equal(ta.loads, tb.loads)
    assert np.array_equal(ta.server_load, tb.server_load)
    assert np.array_equal(ta.capacities, tb.capacities)
    assert np.array_equal(ta.min_deficit, tb.min_deficit)
    assert np.array_equal(ta.online_peers, tb.online_peers)
    assert np.array_equal(ta.total_demand, tb.total_demand)
    assert np.array_equal(ta.times, tb.times)


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_dense_under_churn_matches_single_process(self, shards):
        config = config_for()
        reference = single(config).run(60)
        with sharded(config, shards) as system:
            assert system.num_shards == shards
            assert len(system.shard_pids) == shards
            assert_traces_identical(system.run(60), reference)

    def test_topk_under_churn_matches_single_process(self):
        config = config_for(num_helpers=24, num_channels=3,
                            channel_switch_rate=0.0)
        reference = single(config, bank="topk", topk=3).run(40)
        with sharded(config, 3, bank="topk", topk=3) as system:
            assert_traces_identical(system.run(40), reference)

    @pytest.mark.parametrize("kind", ["sticky", "uniform"])
    def test_baseline_under_churn_matches_single_process(self, kind):
        """The baselines' per-channel banks shard too: the parent ledger
        mirrors one free list per channel."""
        config = config_for()
        reference = single(config, kind=kind)
        assert isinstance(reference.bank, PerChannelGroupedBank)
        with sharded(config, 2, kind=kind) as system:
            assert_traces_identical(system.run(60), reference.run(60))

    def test_record_peers_actions_and_utilities_identical(self):
        config = SystemConfig(
            num_peers=40, num_helpers=6, num_channels=3,
            channel_bitrates=100.0, record_peers=True,
        )
        initial = [i % 3 for i in range(40)]
        reference = single(config, initial_channels=initial).run(30)
        with sharded(config, 3, initial_channels=initial) as system:
            trace = system.run(30)
        assert_traces_identical(trace, reference)
        a, b = trace.to_trajectory(), reference.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_float32_identical(self):
        config = config_for(num_peers=40, channel_switch_rate=0.0)
        reference = VectorizedStreamingSystem(
            config,
            bank_factory("r2hs", u_max=U_MAX, dtype=np.float32),
            rng=7,
            dtype=np.float32,
        ).run(40)
        system = ShardedSystem(
            config,
            bank_factory("r2hs", u_max=U_MAX, dtype=np.float32),
            shards=2,
            rng=7,
            dtype=np.float32,
        )
        try:
            assert_traces_identical(system.run(40), reference)
        finally:
            system.close()


def _kill_shard(system, shard):
    """SIGKILL a live worker and wait for the OS to reap the pid."""
    pid = system.shard_pids[shard]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not system.bank._procs[shard].is_alive():
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


class TestShardDeathContainment:
    @pytest.mark.parametrize("checkpoint_every", [0, 6])
    def test_sigkill_mid_run_recovers_bit_identically(self, checkpoint_every):
        config = config_for()
        reference = single(config).run(50)
        with sharded(
            config, 2,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout=15.0,
        ) as system:
            system.run(20)
            _kill_shard(system, 0)
            system.run(10)  # death detected at the next barrier
            _kill_shard(system, 1)
            trace = system.run(20)
            assert_traces_identical(trace, reference)
            # Both deaths were containments, not silent restarts.
            assert system.bank._attempts == [1, 1]

    def test_retry_budget_exhaustion_fails_the_run(self):
        config = config_for(churn=ChurnConfig(), channel_switch_rate=0.0)
        with sharded(
            config, 2, max_retries=0, heartbeat_timeout=15.0
        ) as system:
            system.run(3)
            _kill_shard(system, 0)
            with pytest.raises(RuntimeError, match="exhausted its 0 retries"):
                system.run(3)


class TestShardedLifecycleAndValidation:
    def test_close_is_idempotent_and_reaps_workers(self):
        system = sharded(config_for(churn=ChurnConfig()), 2)
        system.run(5)
        pids = system.shard_pids
        procs = list(system.bank._procs)
        system.close()
        system.close()
        assert pids  # captured while live
        for proc in procs:
            assert proc is None or not proc.is_alive()

    def test_more_shards_than_channels_rejected(self):
        with pytest.raises(ValueError, match="num_channels"):
            sharded(config_for(num_channels=2, churn=ChurnConfig()), 3)

    def test_plain_bank_factory_rejected(self):
        """A bank whose row allocators the parent ledger cannot mirror
        (here: per-channel banks without a stock free list) is refused."""

        class FixedBank:
            def __init__(self, num_actions):
                self.num_actions = num_actions

            def acquire_many(self, count):
                return np.zeros(count, dtype=np.int64)

        def factory(widths, rngs):
            return PerChannelGroupedBank([FixedBank(w) for w in widths])

        with pytest.raises(RuntimeError, match="ledger"):
            ShardedSystem(
                config_for(churn=ChurnConfig()), factory, shards=2, rng=0
            )

    def test_population_introspection_names_the_limitation(self):
        with sharded(config_for(churn=ChurnConfig()), 2) as system:
            view = system.banks[0]
            assert view.num_actions == 2
            with pytest.raises(RuntimeError, match="worker processes"):
                view.population


class TestShardedSpecIntegration:
    BASE = {
        "rounds": 15,
        "seed": 11,
        "topology": {"num_peers": 30, "num_helpers": 8, "num_channels": 4},
    }

    def test_build_returns_sharded_system_and_metrics_match(self):
        plain = ExperimentSpec.from_dict(self.BASE)
        spec = plain.with_overrides({"learner.shards": 2})
        system = spec.build()
        assert isinstance(system, ShardedSystem)
        system.close()
        a, b = plain.run(), spec.run()
        assert a.metrics == b.metrics

    def test_sticky_shards_match_one_shard(self):
        spec = ExperimentSpec.from_dict(
            {**self.BASE, "learner": {"name": "sticky", "shards": 2}}
        )
        one = spec.with_overrides({"learner.shards": 1}).run().trace
        two = spec.run().trace
        assert_traces_identical(two, one)

    def test_shards_excluded_from_result_digest(self):
        plain = ExperimentSpec.from_dict(self.BASE)
        spec = plain.with_overrides({"learner.shards": 2})
        assert plain.result_digest() == spec.result_digest()
        assert spec.to_dict()["learner"]["shards"] == 2

    def test_shards_require_vectorized_grouped_backend(self):
        with pytest.raises(ValueError, match="vectorized"):
            ExperimentSpec.from_dict(
                {**self.BASE, "backend": "scalar", "learner": {"shards": 2}}
            )
        with pytest.raises(ValueError, match="num_channels"):
            ExperimentSpec.from_dict({**self.BASE, "learner": {"shards": 9}})
        with pytest.raises(ValueError, match="integer"):
            ExperimentSpec.from_dict({**self.BASE, "learner": {"shards": 0}})
