"""Scalar-vs-vectorized system equivalence.

The decisive suite: under a shared recorded capacity trace and *scripted*
helper choices, :class:`~repro.runtime.VectorizedStreamingSystem` must
reproduce :class:`~repro.sim.system.StreamingSystem` round records
trace-for-trace (integer fields and per-peer utilities exactly; welfare
and server load to float summation-order tolerance).  With learners on,
the two backends follow the same dynamics through different RNG stream
layouts, so agreement is distributional.
"""

import numpy as np
import pytest

from repro.core.r2hs import R2HSLearner
from repro.runtime import (
    PerChannelGroupedBank,
    VectorizedStreamingSystem,
    bank_factory,
    build_per_channel_banks,
)
from repro.sim import (
    StreamingSystem,
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.spec import (
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    TopologySpec,
)

SUM_TOL = dict(rtol=1e-11, atol=1e-8)


def spec_for(churn=ChurnSpec(), record_peers=False, learner="r2hs", **topology):
    """One spec for both systems; a system given no capacity process
    builds the spec's (vectorized-backend) environment."""
    return ExperimentSpec(
        topology=TopologySpec(**topology),
        learner=LearnerSpec(name=learner),
        churn=churn,
        metrics=MetricsSpec(record_peers=record_peers),
    )


class ScriptedLearner:
    """Scalar learner replaying a fixed per-round action column."""

    def __init__(self, column, num_actions):
        self._column = column
        self._m = int(num_actions)
        self._t = 0

    @property
    def num_actions(self):
        return self._m

    def act(self):
        return int(self._column[self._t])

    def observe(self, action, utility):
        self._t += 1

    def strategy(self):
        return np.full(self._m, 1.0 / self._m)


class ScriptedBank:
    """Vectorized bank replaying a fixed (rounds, rows) action matrix."""

    def __init__(self, script, num_actions):
        self._script = script
        self._m = int(num_actions)
        self._t = 0

    @property
    def num_actions(self):
        return self._m

    def acquire_many(self, count):
        return np.arange(count)

    def acquire(self):  # pragma: no cover - fixed populations only
        raise NotImplementedError("scripted banks model fixed populations")

    def release(self, row):  # pragma: no cover - fixed populations only
        raise NotImplementedError

    def act(self, rows):
        return self._script[self._t, rows]

    def observe(self, rows, actions, utilities):
        self._t += 1


def per_channel(factory):
    """The one bank contract over per-channel ``(num_actions, rng)`` banks."""
    return lambda widths, rngs: PerChannelGroupedBank(
        build_per_channel_banks(factory, widths, rngs)
    )


class TestScriptedExactEquivalence:
    def _assert_traces_match(self, ts, tv):
        assert np.array_equal(ts.loads, tv.loads)
        assert np.array_equal(ts.online_peers, tv.online_peers)
        assert np.array_equal(ts.capacities, tv.capacities)
        assert np.array_equal(ts.min_deficit, tv.min_deficit)
        assert np.array_equal(ts.total_demand, tv.total_demand)
        assert np.array_equal(ts.times, tv.times)
        np.testing.assert_allclose(ts.welfare, tv.welfare, **SUM_TOL)
        np.testing.assert_allclose(ts.server_load, tv.server_load, **SUM_TOL)

    def test_single_channel_trace_for_trace(self):
        N, H, T = 40, 4, 80
        rng = np.random.default_rng(42)
        script = rng.integers(0, H, size=(T, N))
        shared = record_capacity_trace(paper_bandwidth_process(H, rng=7), T)
        spec = spec_for(
            num_peers=N, num_helpers=H, channel_bitrates=100.0, record_peers=True
        )

        counter = {"i": 0}

        def factory(h, _rng):
            column = script[:, counter["i"]]
            counter["i"] += 1
            return ScriptedLearner(column, h)

        scalar = StreamingSystem(
            spec, factory, rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        vectorized = VectorizedStreamingSystem(
            spec, per_channel(lambda h, r: ScriptedBank(script, h)), rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        ts = scalar.run(T)
        tv = vectorized.run(T)
        self._assert_traces_match(ts, tv)
        # Per-peer detail: helper ids exactly, utilities exactly (identical
        # divisions, no summation involved).
        a, b = ts.to_trajectory(), tv.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_trace_for_trace_under_vectorized_engine_path(self):
        """Same exactness with the shared path recorded from the new
        vectorized capacity engine: both backends replay it identically."""
        N, H, T = 25, 4, 50
        rng = np.random.default_rng(17)
        script = rng.integers(0, H, size=(T, N))
        shared = record_capacity_trace(
            paper_bandwidth_process(H, rng=7, backend="vectorized"), T
        )
        spec = spec_for(
            num_peers=N, num_helpers=H, channel_bitrates=100.0, record_peers=True
        )

        counter = {"i": 0}

        def factory(h, _rng):
            column = script[:, counter["i"]]
            counter["i"] += 1
            return ScriptedLearner(column, h)

        scalar = StreamingSystem(
            spec, factory, rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        vectorized = VectorizedStreamingSystem(
            spec, per_channel(lambda h, r: ScriptedBank(script, h)), rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        ts = scalar.run(T)
        tv = vectorized.run(T)
        self._assert_traces_match(ts, tv)
        a, b = ts.to_trajectory(), tv.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_multi_channel_trace_for_trace(self):
        """Two channels with different helper counts and bitrates."""
        N, T = 30, 60
        spec = spec_for(
            num_peers=N,
            num_helpers=5,   # round-robin: channel 0 gets 3, channel 1 gets 2
            num_channels=2,
            channel_bitrates=[100.0, 250.0],
        )
        rng = np.random.default_rng(3)
        initial_channels = rng.integers(0, 2, size=N).tolist()
        n0 = initial_channels.count(0)
        n1 = initial_channels.count(1)
        scripts = {
            0: rng.integers(0, 3, size=(T, n0)),
            1: rng.integers(0, 2, size=(T, n1)),
        }
        shared = record_capacity_trace(paper_bandwidth_process(5, rng=11), T)

        counters = {0: 0, 1: 0}
        order = list(initial_channels)
        calls = {"i": 0}

        def learner_factory(num_actions, _rng):
            channel = order[calls["i"]]
            calls["i"] += 1
            column = scripts[channel][:, counters[channel]]
            counters[channel] += 1
            return ScriptedLearner(column, num_actions)

        # Banks are requested per channel in id order: 0 then 1.
        bank_channel = {"next": 0}

        def scripted_bank_factory(num_actions, _rng):
            c = bank_channel["next"]
            bank_channel["next"] += 1
            return ScriptedBank(scripts[c], num_actions)

        scalar = StreamingSystem(
            spec,
            learner_factory,
            rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
            initial_channels=order,
        )
        vectorized = VectorizedStreamingSystem(
            spec,
            per_channel(scripted_bank_factory),
            rng=0,
            capacity_process=TraceCapacityProcess(shared.copy()),
            initial_channels=order,
        )
        ts = scalar.run(T)
        tv = vectorized.run(T)
        self._assert_traces_match(ts, tv)


class TestLearnerDistributionalAgreement:
    def test_r2hs_steady_state_matches(self):
        """Same spec, same shared environment, learners on: the two
        backends must agree on steady-state welfare, server load and load
        balance to sampling tolerance."""
        N, H, T = 60, 4, 600
        shared = record_capacity_trace(paper_bandwidth_process(H, rng=5), T)
        spec = spec_for(num_peers=N, num_helpers=H, channel_bitrates=100.0)

        scalar = StreamingSystem(
            spec,
            lambda h, rng: R2HSLearner(h, rng=rng, u_max=900.0),
            rng=1,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        vectorized = VectorizedStreamingSystem(
            spec,
            bank_factory("r2hs", u_max=900.0),
            rng=2,
            capacity_process=TraceCapacityProcess(shared.copy()),
        )
        ts = scalar.run(T)
        tv = vectorized.run(T)
        tail = slice(T // 2, None)
        ws, wv = ts.welfare[tail].mean(), tv.welfare[tail].mean()
        assert abs(ws - wv) / ws < 0.03
        ss, sv = ts.server_load[tail].mean(), tv.server_load[tail].mean()
        assert abs(ss - sv) < 0.05 * max(ss, 1.0)
        # Both concentrate every helper's load near N/H.
        assert np.allclose(
            ts.loads[tail].mean(axis=0), N / H, atol=0.15 * N / H
        )
        assert np.allclose(
            tv.loads[tail].mean(axis=0), N / H, atol=0.15 * N / H
        )


class TestVectorizedChurn:
    def test_invariants_under_churn(self):
        spec = spec_for(
            num_peers=20,
            num_helpers=4,
            channel_bitrates=100.0,
            churn=ChurnSpec(
                arrival_rate=0.5, mean_lifetime=25.0,
                initial_peer_lifetimes=True,
            ),
        )
        system = VectorizedStreamingSystem(spec, bank_factory("rths"), rng=6)
        trace = system.run(150)
        assert np.all(trace.loads.sum(axis=1) == trace.online_peers)
        store = system.store
        # Lifetime stats only accumulate while online.
        online = store.online_slots()
        assert np.all(store.rounds_participated[online] >= 0)
        # Free-list reuse happened and no slot double-books a bank row
        # within a channel.
        for c, bank in enumerate(system.banks):
            mask = store.channel[online] == c
            rows = store.bank_row[online[mask]]
            assert len(np.unique(rows)) == rows.size

    def test_record_peers_with_churn_raises(self):
        with pytest.raises(ValueError, match="record_peers requires a fixed"):
            spec_for(
                num_peers=8,
                num_helpers=4,
                channel_bitrates=100.0,
                record_peers=True,
                churn=ChurnSpec(arrival_rate=2.0),
            )


class TestBankConstructionErrors:
    def test_single_helper_channel_names_the_channel(self):
        """Round-robin can hand a channel one helper; a regret bank then
        cannot be built, and the error must say which channel and why."""
        spec = spec_for(
            num_peers=10, num_helpers=5, num_channels=4, channel_bitrates=100.0,
            learner="sticky",  # the spec admits a one-helper channel
        )
        with pytest.raises(ValueError, match=r"channel 1 .*1 helper"):
            VectorizedStreamingSystem(spec, bank_factory("r2hs"), rng=0)


class TestVectorizedChannelSwitching:
    def test_switches_preserve_population(self):
        spec = spec_for(
            num_peers=30,
            num_helpers=4,
            num_channels=2,
            channel_bitrates=100.0,
            channel_switch_rate=0.5,
        )
        system = VectorizedStreamingSystem(spec, bank_factory("sticky"), rng=8)
        trace = system.run(150)
        assert system.channel_switches > 0
        assert np.all(trace.online_peers == 30)
        # Each switch retired one uid and created another.
        assert system.store.total_created == 30 + system.channel_switches

