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
from repro.spec import (
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    TopologySpec,
)

U_MAX = 900.0

CHURN = ChurnSpec(
    arrival_rate=2.0, mean_lifetime=25.0, initial_peer_lifetimes=True
)


def spec_for(churn=CHURN, record_peers=False, dtype="float64", **overrides):
    topology = dict(
        num_peers=60,
        num_helpers=8,
        num_channels=4,
        channel_bitrates=100.0,
        channel_switch_rate=0.5,
    )
    topology.update(overrides)
    return ExperimentSpec(
        topology=TopologySpec(**topology),
        learner=LearnerSpec(dtype=dtype),
        churn=churn,
        metrics=MetricsSpec(record_peers=record_peers),
    )


def build(spec, *, kind="r2hs", bank="dense", topk=32, seed=42,
          initial_channels=None):
    dtype = np.dtype(spec.learner.dtype)
    return VectorizedStreamingSystem(
        spec,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk, dtype=dtype),
        rng=seed,
        initial_channels=initial_channels,
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
        spec = spec_for(num_channels=num_channels)
        assert_traces_identical(
            build(spec, kind=kind).run(60), build(spec, kind=kind).run(60)
        )

    @pytest.mark.parametrize("kind", ["r2hs", "rths"])
    def test_topk_under_churn_replays(self, kind):
        spec = spec_for(num_helpers=24, num_channels=3,
                            channel_switch_rate=0.0)
        first = build(spec, kind=kind, bank="topk", topk=3).run(40)
        second = build(spec, kind=kind, bank="topk", topk=3).run(40)
        assert_traces_identical(first, second)

    @pytest.mark.parametrize("kind", ["sticky", "uniform"])
    def test_baseline_under_churn_replays(self, kind):
        spec = spec_for()
        first = build(spec, kind=kind)
        assert isinstance(first.bank, PerChannelGroupedBank)
        assert_traces_identical(
            first.run(60), build(spec, kind=kind).run(60)
        )

    def test_record_peers_actions_and_utilities_replay(self):
        spec = spec_for(
            churn=ChurnSpec(), record_peers=True, num_peers=40, num_helpers=6,
            num_channels=3, channel_switch_rate=0.0,
        )
        initial = [i % 3 for i in range(40)]
        first = build(spec, initial_channels=initial).run(30)
        second = build(spec, initial_channels=initial).run(30)
        assert_traces_identical(first, second)
        a, b = first.to_trajectory(), second.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_float32_replays(self):
        spec = spec_for(dtype="float32", num_peers=40, channel_switch_rate=0.0)
        first = build(spec, seed=7).run(40)
        second = build(spec, seed=7).run(40)
        assert_traces_identical(first, second)

    def test_another_seed_diverges(self):
        # The replay checks above are not vacuous: the seed reaches the
        # trace.
        spec = spec_for()
        a = build(spec, seed=42).run(60)
        b = build(spec, seed=43).run(60)
        assert not np.array_equal(a.welfare, b.welfare)


class TestSplitRun:
    @pytest.mark.parametrize(
        "kind, bank", [("r2hs", "dense"), ("r2hs", "topk"), ("sticky", "dense")]
    )
    def test_run_in_pieces_equals_one_run(self, kind, bank):
        spec = spec_for(num_helpers=24, num_channels=3)
        reference = build(spec, kind=kind, bank=bank, topk=3).run(50)
        system = build(spec, kind=kind, bank=bank, topk=3)
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
        system = build(spec_for())
        trace = system.run(30)
        welfare = trace.welfare.copy()
        system.close()
        system.close()
        assert trace.num_rounds == 30
        assert np.array_equal(trace.welfare, welfare)
