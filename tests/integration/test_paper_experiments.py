"""Integration tests: scaled-down versions of the paper's five figures.

Each test runs the same pipeline as the corresponding benchmark (smaller,
seeded) and asserts the *shape* the paper reports — who wins, what decays,
what balances — not absolute numbers.
"""

import numpy as np
import pytest

import repro
from repro.core import LearnerPopulation, empirical_ce_regret
from repro.game.best_response import (
    oscillation_period,
    simultaneous_best_response_path,
)
from repro.game.helper_selection import HelperSelectionGame
from repro.mdp import solve_symmetric_optimum
from repro.metrics import (
    jain_index,
    load_balance_report,
    server_load_report,
    time_averaged_regret_series,
)
from repro.sim import StreamingSystem, paper_bandwidth_process
from repro.spec import ExperimentSpec, TopologySpec


@pytest.fixture(scope="module")
def small_scale_run():
    """One shared small-scale (N=10, H=4) run used by several tests."""
    spec = repro.small_scale_spec(num_stages=1500, backend="scalar")
    process = spec.build_capacity_process(rng=1)
    population = spec.build_population(rng=2)
    trajectory = population.run(process, spec.rounds)
    return spec, process, trajectory


class TestFig1RegretDecay:
    def test_worst_player_time_averaged_regret_decays(self):
        population = LearnerPopulation(40, 6, epsilon=0.05, u_max=900.0, rng=3)
        process = paper_bandwidth_process(6, rng=4)
        trajectory = population.run(process, 1500)
        series = time_averaged_regret_series(
            trajectory, sample_every=100, u_max=900.0
        )
        # Decaying toward a small value: late average far below early.
        assert series[-1] < series[0] * 0.5
        assert series[-1] < 0.02


class TestFig2NearOptimalWelfare:
    def test_rths_within_ten_percent_of_mdp_optimum(self, small_scale_run):
        spec, process, trajectory = small_scale_run
        optimum = solve_symmetric_optimum(
            process.chains, spec.topology.num_peers
        ).value
        steady = trajectory.welfare[-400:].mean()
        assert steady > 0.9 * optimum
        assert steady <= optimum + 1e-6

    def test_empirical_play_approaches_ce(self, small_scale_run):
        _, _, trajectory = small_scale_run
        assert empirical_ce_regret(trajectory, u_max=900.0) < 0.05


class TestFig3LoadBalance:
    def test_loads_concentrate_near_proportional(self, small_scale_run):
        _, _, trajectory = small_scale_run
        report = load_balance_report(trajectory, tail_fraction=0.4)
        assert report.jain > 0.9
        assert report.distance_to_proportional < 0.5


class TestFig4PeerFairness:
    def test_per_peer_cumulative_rates_are_fair(self, small_scale_run):
        _, _, trajectory = small_scale_run
        tail = trajectory.tail(0.4)
        per_peer = tail.utilities.mean(axis=0)
        assert jain_index(per_peer) > 0.95


class TestFig5ServerLoad:
    def test_server_load_tracks_minimum_deficit(self):
        spec = ExperimentSpec(
            backend="scalar",
            topology=TopologySpec(num_peers=40, num_helpers=4, channel_bitrates=100.0),
        )
        system = StreamingSystem(
            spec,
            lambda h, rng: repro.R2HSLearner(h, rng=rng, u_max=900.0),
            rng=5,
        )
        trace = system.run(400)
        report = server_load_report(trace)
        steady = report.server_load[100:].mean()
        bound = report.min_deficit.mean()
        # Load sits near (at most) the bound, far below the no-helper load.
        assert steady < bound * 1.1
        assert report.saving_fraction > 0.6


class TestSecIIIBOscillationMotivation:
    def test_best_response_oscillates_where_rths_converges(self):
        game = HelperSelectionGame(10, [800.0, 800.0])
        path = simultaneous_best_response_path(game, [0] * 10, 20)
        assert oscillation_period(path) == 2

        population = LearnerPopulation(
            10, 2, epsilon=0.05, u_max=800.0, rng=6
        )
        trajectory = population.run(
            repro.StaticCapacities([800.0, 800.0]), 1500
        )
        # RTHS play does not herd: both helpers stay occupied nearly always.
        tail = trajectory.tail(0.3)
        herd_stages = np.mean((tail.loads == 0).any(axis=1))
        assert herd_stages < 0.05
        assert empirical_ce_regret(trajectory, u_max=800.0) < 0.05
