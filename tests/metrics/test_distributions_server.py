"""Tests for repro.metrics.distributions and repro.metrics.server_load."""

import numpy as np
import pytest

from repro.core.r2hs import R2HSLearner
from repro.game.repeated_game import Trajectory
from repro.metrics.distributions import (
    load_balance_report,
    load_distance_to_proportional,
    mean_loads,
)
from repro.metrics.server_load import server_load_report
from repro.sim.system import StreamingSystem
from repro.spec import ExperimentSpec, TopologySpec


def fixed_trajectory(load_rows, capacities):
    load_rows = np.asarray(load_rows, dtype=int)
    t, h = load_rows.shape
    n = int(load_rows[0].sum())
    actions = np.zeros((t, n), dtype=int)
    for s in range(t):
        idx = 0
        for j in range(h):
            actions[s, idx : idx + load_rows[s, j]] = j
            idx += load_rows[s, j]
    caps = np.tile(np.asarray(capacities, dtype=float), (t, 1))
    utilities = np.stack(
        [caps[s][actions[s]] / load_rows[s][actions[s]] for s in range(t)]
    )
    return Trajectory(
        capacities=caps, actions=actions, loads=load_rows, utilities=utilities
    )


class TestMeanLoads:
    def test_tail_mean(self):
        traj = fixed_trajectory([[4, 0], [0, 4], [2, 2], [2, 2]], [800.0, 800.0])
        assert mean_loads(traj, tail_fraction=0.5).tolist() == [2.0, 2.0]

    def test_fraction_validated(self):
        traj = fixed_trajectory([[1, 1]], [800.0, 800.0])
        with pytest.raises(ValueError):
            mean_loads(traj, tail_fraction=0.0)


class TestLoadDistance:
    def test_zero_at_proportional(self):
        assert load_distance_to_proportional(
            np.array([3.0, 6.0]), np.array([600.0, 1200.0]), 9
        ) == pytest.approx(0.0)

    def test_positive_off_target(self):
        distance = load_distance_to_proportional(
            np.array([9.0, 0.0]), np.array([600.0, 1200.0]), 9
        )
        assert distance == pytest.approx(12.0 / 9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            load_distance_to_proportional(np.ones(2), np.ones(3), 2)
        with pytest.raises(ValueError):
            load_distance_to_proportional(np.ones(2), np.zeros(2), 2)


class TestLoadBalanceReport:
    def test_balanced_run_scores_high(self):
        traj = fixed_trajectory([[2, 2]] * 10, [800.0, 800.0])
        report = load_balance_report(traj)
        assert report.jain == pytest.approx(1.0)
        assert report.cv == pytest.approx(0.0)
        assert report.distance_to_proportional == pytest.approx(0.0)

    def test_skewed_run_scores_low(self):
        traj = fixed_trajectory([[4, 0]] * 10, [800.0, 800.0])
        report = load_balance_report(traj)
        assert report.jain == pytest.approx(0.5)
        assert report.distance_to_proportional > 0.4

    def test_per_stage_cv_shape(self):
        traj = fixed_trajectory([[2, 2]] * 8, [800.0, 800.0])
        report = load_balance_report(traj, tail_fraction=0.5)
        assert report.per_stage_cv.shape == (4,)


class TestServerLoadReport:
    def _trace(self):
        spec = ExperimentSpec(
            backend="scalar",
            topology=TopologySpec(num_peers=40, num_helpers=4, channel_bitrates=100.0),
        )
        system = StreamingSystem(
            spec,
            lambda h, rng: R2HSLearner(h, rng=rng, u_max=900.0),
            rng=0,
        )
        return system.run(150)

    def test_report_fields(self):
        report = server_load_report(self._trace())
        assert report.server_load.shape == (150,)
        assert np.allclose(report.min_deficit, 1200.0)
        assert np.allclose(report.no_helper_load, 4000.0)

    def test_server_load_bounded_below_by_instantaneous_deficit(self):
        trace = self._trace()
        report = server_load_report(trace)
        # Per round, the server must cover at least the aggregate shortfall
        # against the *realized* capacities.
        realized_deficit = np.maximum(
            0.0, report.no_helper_load - trace.capacities.sum(axis=1)
        )
        assert np.all(report.server_load >= realized_deficit - 1e-9)

    def test_helpers_absorb_most_demand(self):
        report = server_load_report(self._trace())
        assert report.saving_fraction > 0.5

    def test_load_hugs_the_minimum_deficit_bound(self):
        report = server_load_report(self._trace())
        # Fig. 5: the realized load tracks the bound.  With capacities above
        # their minimum level the load sits below min_deficit (helpers are
        # fully utilized); bad balancing would push it above.
        steady = report.server_load[50:].mean()
        # Expected band: [demand - E[sum C], min_deficit] = [800, 1200].
        assert 600.0 < steady < 1300.0

    def test_empty_trace_rejected(self):
        from repro.sim.trace import SystemTrace

        with pytest.raises(ValueError):
            server_load_report(SystemTrace())
