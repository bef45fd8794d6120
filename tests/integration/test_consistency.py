"""Cross-path consistency: the object driver, the vectorized population
and the DES system implement the same game."""

import numpy as np

from repro.core import LearnerPopulation, R2HSLearner
from repro.game.repeated_game import RepeatedGameDriver
from repro.sim.bandwidth import (
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.sim.system import StreamingSystem
from repro.spec import ExperimentSpec, MetricsSpec, TopologySpec


def test_driver_and_population_statistically_agree():
    """Same environment trace, same parameters, different RNG streams:
    steady-state welfare distributions must coincide closely."""
    env = paper_bandwidth_process(4, rng=0)
    trace = record_capacity_trace(env, 1500)

    driver_learners = [
        R2HSLearner(4, rng=100 + i, epsilon=0.05, u_max=900.0) for i in range(10)
    ]
    driver = RepeatedGameDriver(driver_learners, TraceCapacityProcess(trace.copy()))
    traj_driver = driver.run(1500)

    population = LearnerPopulation(10, 4, epsilon=0.05, u_max=900.0, rng=200)
    traj_pop = population.run(TraceCapacityProcess(trace.copy()), 1500)

    a = traj_driver.welfare[-500:].mean()
    b = traj_pop.welfare[-500:].mean()
    assert abs(a - b) / max(a, b) < 0.03


def test_des_system_matches_pure_game_path():
    """The DES system with a fixed population realizes the same stage game
    as the repeated-game driver (same welfare statistics)."""
    spec = ExperimentSpec(
        backend="scalar",
        topology=TopologySpec(num_peers=10, num_helpers=4, channel_bitrates=100.0),
        metrics=MetricsSpec(record_peers=True),
    )
    system = StreamingSystem(
        spec,
        lambda h, rng: R2HSLearner(h, rng=rng, epsilon=0.05, u_max=900.0),
        rng=7,
    )
    trace = system.run(1200)
    traj_system = trace.to_trajectory()

    population = LearnerPopulation(10, 4, epsilon=0.05, u_max=900.0, rng=8)
    process = paper_bandwidth_process(4, rng=9)
    traj_pop = population.run(process, 1200)

    a = traj_system.welfare[-400:].mean()
    b = traj_pop.welfare[-400:].mean()
    assert abs(a - b) / max(a, b) < 0.05

    # Structural invariants agree too.
    assert traj_system.loads.sum(axis=1).tolist() == [10] * 1200
    assert np.all(traj_pop.loads.sum(axis=1) == 10)


def test_population_and_driver_identical_under_forced_actions():
    """Bit-exact check: bypass sampling and feed identical actions through
    both update paths."""
    population = LearnerPopulation(3, 4, epsilon=0.1, delta=0.1, u_max=900.0, rng=0)
    learners = [
        R2HSLearner(4, rng=0, epsilon=0.1, delta=0.1, u_max=900.0) for _ in range(3)
    ]
    env = np.random.default_rng(1)
    for _ in range(40):
        actions = env.integers(0, 4, size=3)
        caps = env.uniform(700, 900, size=4)
        loads = np.bincount(actions, minlength=4)
        utils = caps[actions] / loads[actions]
        for i, learner in enumerate(learners):
            learner.observe(int(actions[i]), float(utils[i]))
        population.observe_all(actions, utils)
    for i, learner in enumerate(learners):
        assert np.allclose(population.strategies()[i], learner.strategy(), atol=1e-12)
