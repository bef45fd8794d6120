"""Unit tests for the prequential trace reductions."""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.eval.metrics import (
    SCALAR_METRICS,
    WINDOW_METRICS,
    prequential_metrics,
)
from repro.sim.trace import SystemTrace

NUM_HELPERS = 2


def make_trace(
    welfare,
    online,
    demand,
    server_load=None,
    min_deficit=None,
    loads=None,
    actions=None,
):
    """A synthetic trace with explicit per-round aggregates."""
    rounds = len(welfare)
    server_load = server_load if server_load is not None else [0.0] * rounds
    min_deficit = min_deficit if min_deficit is not None else [0.0] * rounds
    loads = loads if loads is not None else [[0.0] * NUM_HELPERS] * rounds
    trace = SystemTrace()
    for t in range(rounds):
        trace.append_round(
            time=float(t),
            capacities=np.zeros(NUM_HELPERS),
            loads=np.asarray(loads[t], dtype=float),
            welfare=float(welfare[t]),
            server_load=float(server_load[t]),
            min_deficit=float(min_deficit[t]),
            online_peers=int(online[t]),
            total_demand=float(demand[t]),
        )
    if actions is not None:
        trace.actions = [np.asarray(a) for a in actions]
    return trace


class TestScalars:
    def test_reward_is_ratio_of_sums(self):
        trace = make_trace(welfare=[10.0, 30.0], online=[2, 2], demand=[40.0, 40.0])
        metrics = prequential_metrics(trace, window=2)
        assert metrics["reward"] == pytest.approx(40.0 / 4.0)

    def test_regret_counts_only_load_above_the_deficit_floor(self):
        trace = make_trace(
            welfare=[0.0, 0.0],
            online=[4, 4],
            demand=[10.0, 10.0],
            server_load=[7.0, 2.0],
            min_deficit=[5.0, 5.0],
        )
        metrics = prequential_metrics(trace, window=2)
        # Round 0 exceeds the floor by 2; round 1 is below it (no credit).
        assert metrics["regret"] == pytest.approx(2.0 / 8.0)

    def test_stall_rate_is_unserved_demand_fraction(self):
        trace = make_trace(
            welfare=[6.0, 10.0],
            online=[1, 1],
            demand=[10.0, 10.0],
            server_load=[1.0, 0.0],
        )
        metrics = prequential_metrics(trace, window=2)
        assert metrics["stall_rate"] == pytest.approx(3.0 / 20.0)

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            prequential_metrics(SystemTrace(), window=5)

    def test_zero_online_rounds_report_zero_not_nan(self):
        trace = make_trace(welfare=[0.0, 0.0], online=[0, 0], demand=[0.0, 0.0])
        metrics = prequential_metrics(trace, window=1)
        for name in SCALAR_METRICS:
            assert metrics[name] == 0.0
        for name in WINDOW_METRICS:
            assert np.all(metrics[name] == 0.0)


class TestSwitchRate:
    def test_exact_from_recorded_actions(self):
        actions = [[0, 0, 1], [0, 1, 1], [0, 1, 1]]  # 1 switch at round 1
        trace = make_trace(
            welfare=[1.0] * 3, online=[3] * 3, demand=[3.0] * 3, actions=actions
        )
        metrics = prequential_metrics(trace, window=3)
        assert metrics["switch_exact"] == 1.0
        assert metrics["switch_rate"] == pytest.approx(1.0 / 9.0)

    def test_round_zero_is_never_a_switch(self):
        actions = [[0, 1], [0, 1]]
        trace = make_trace(
            welfare=[1.0] * 2, online=[2] * 2, demand=[2.0] * 2, actions=actions
        )
        assert prequential_metrics(trace, window=2)["switch_rate"] == 0.0

    def test_load_movement_proxy_without_actions(self):
        loads = [[4.0, 0.0], [2.0, 2.0]]  # 2 peers moved -> 0.5 * |dl| = 2
        trace = make_trace(
            welfare=[1.0] * 2, online=[4] * 2, demand=[4.0] * 2, loads=loads
        )
        metrics = prequential_metrics(trace, window=2)
        assert metrics["switch_exact"] == 0.0
        assert metrics["switch_rate"] == pytest.approx(2.0 / 8.0)


class TestWindowedOutputs:
    def test_last_partial_window_is_reported(self):
        trace = make_trace(
            welfare=[2.0, 2.0, 8.0], online=[1, 1, 1], demand=[10.0] * 3
        )
        metrics = prequential_metrics(trace, window=2)
        assert metrics["windows"] == 2.0
        assert metrics["window_reward"].tolist() == [2.0, 8.0]
        assert metrics["final_window_reward"] == 8.0

    def test_window_equal_to_horizon_yields_one_window(self):
        trace = make_trace(welfare=[1.0] * 4, online=[1] * 4, demand=[1.0] * 4)
        metrics = prequential_metrics(trace, window=4)
        assert metrics["windows"] == 1.0
        assert metrics["window_reward"].tolist() == [1.0]

    def test_bookkeeping_fields(self):
        trace = make_trace(welfare=[1.0] * 5, online=[1] * 5, demand=[1.0] * 5)
        metrics = prequential_metrics(trace, window=2)
        assert metrics["rounds"] == 5.0
        assert metrics["window_size"] == 2.0
        assert metrics["windows"] == 3.0


class TestTelemetry:
    def test_window_counter_and_phase_fire_under_session(self):
        trace = make_trace(welfare=[1.0] * 5, online=[1] * 5, demand=[1.0] * 5)
        with telemetry.session(enabled=True) as tel:
            prequential_metrics(trace, window=2)
            snap = tel.snapshot()
        assert snap["counters"]["eval.windows"] == 3
        assert snap["phases"]["eval.window"]["count"] == 1

    def test_no_telemetry_leak_when_disabled(self):
        trace = make_trace(welfare=[1.0], online=[1], demand=[1.0])
        metrics = prequential_metrics(trace, window=1)
        assert metrics["reward"] == 1.0
