"""Replay and lifecycle of the one-process streaming system.

A run is one process (``learner.shards`` is parse-only).  Under the same
seed, :class:`VectorizedStreamingSystem` must produce **the same bytes**
on every build: every trace array equal with ``np.array_equal`` (no
tolerance), for dense and sparse top-k storage, the per-channel
baselines, float32 storage and per-peer recording, under churn and
channel switching.  A run split over several ``run`` calls equals the
same run made at once, a spec run starts no worker process, and
``close`` leaves the trace readable.
"""

import multiprocessing

import numpy as np
import pytest

from repro.runtime import (
    PerChannelGroupedBank,
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


def build(config, *, kind="r2hs", bank="dense", topk=32, seed=42,
          initial_channels=None, dtype=np.float64):
    return VectorizedStreamingSystem(
        config,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk, dtype=dtype),
        rng=seed,
        initial_channels=initial_channels,
        dtype=dtype,
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


class TestReplay:
    @pytest.mark.parametrize("num_channels", [2, 4])
    @pytest.mark.parametrize("kind", ["r2hs", "rths"])
    def test_dense_under_churn_replays(self, kind, num_channels):
        config = config_for(num_channels=num_channels)
        assert_traces_identical(
            build(config, kind=kind).run(60), build(config, kind=kind).run(60)
        )

    @pytest.mark.parametrize("kind", ["r2hs", "rths"])
    def test_topk_under_churn_replays(self, kind):
        config = config_for(num_helpers=24, num_channels=3,
                            channel_switch_rate=0.0)
        first = build(config, kind=kind, bank="topk", topk=3).run(40)
        second = build(config, kind=kind, bank="topk", topk=3).run(40)
        assert_traces_identical(first, second)

    @pytest.mark.parametrize("kind", ["sticky", "uniform"])
    def test_baseline_under_churn_replays(self, kind):
        config = config_for()
        first = build(config, kind=kind)
        assert isinstance(first.bank, PerChannelGroupedBank)
        assert_traces_identical(
            first.run(60), build(config, kind=kind).run(60)
        )

    def test_record_peers_actions_and_utilities_replay(self):
        config = SystemConfig(
            num_peers=40, num_helpers=6, num_channels=3,
            channel_bitrates=100.0, record_peers=True,
        )
        initial = [i % 3 for i in range(40)]
        first = build(config, initial_channels=initial).run(30)
        second = build(config, initial_channels=initial).run(30)
        assert_traces_identical(first, second)
        a, b = first.to_trajectory(), second.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_float32_replays(self):
        config = config_for(num_peers=40, channel_switch_rate=0.0)
        first = build(config, seed=7, dtype=np.float32).run(40)
        second = build(config, seed=7, dtype=np.float32).run(40)
        assert_traces_identical(first, second)

    def test_another_seed_diverges(self):
        # The replay checks above are not vacuous: the seed reaches the
        # trace.
        config = config_for()
        a = build(config, seed=42).run(60)
        b = build(config, seed=43).run(60)
        assert not np.array_equal(a.welfare, b.welfare)


class TestSplitRun:
    @pytest.mark.parametrize(
        "kind, bank", [("r2hs", "dense"), ("r2hs", "topk"), ("sticky", "dense")]
    )
    def test_run_in_pieces_equals_one_run(self, kind, bank):
        config = config_for(num_helpers=24, num_channels=3)
        reference = build(config, kind=kind, bank=bank, topk=3).run(50)
        system = build(config, kind=kind, bank=bank, topk=3)
        for rounds in (20, 10, 20):
            trace = system.run(rounds)
        assert trace.num_rounds == 50
        assert_traces_identical(trace, reference)


class TestOneProcess:
    BASE = {
        "rounds": 15,
        "seed": 11,
        "topology": {"num_peers": 30, "num_helpers": 8, "num_channels": 4},
    }

    @pytest.mark.parametrize("name", ["r2hs", "rths", "sticky", "uniform"])
    def test_spec_run_starts_no_process(self, name):
        spec = ExperimentSpec.from_dict(
            dict(self.BASE, learner={"name": name, "shards": 1})
        )
        before = set(multiprocessing.active_children())
        system = spec.build()
        try:
            assert type(system) is VectorizedStreamingSystem
            system.run(spec.rounds)
            assert set(multiprocessing.active_children()) <= before
        finally:
            system.close()

    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_spec_run_replays(self, backend):
        spec = ExperimentSpec.from_dict(dict(self.BASE, backend=backend))
        a, b = spec.run(), spec.run()
        assert a.metrics == b.metrics
        assert np.array_equal(a.trace.welfare, b.trace.welfare)
        assert np.array_equal(a.trace.loads, b.trace.loads)

    def test_close_is_idempotent_and_trace_stays_readable(self):
        system = build(config_for())
        trace = system.run(30)
        welfare = trace.welfare.copy()
        system.close()
        system.close()
        assert trace.num_rounds == 30
        assert np.array_equal(trace.welfare, welfare)
