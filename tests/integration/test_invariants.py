"""Property-based invariants across the substrate.

Hypothesis-driven checks of the structural facts everything else leans on:
event ordering in the engine, stationarity of random ergodic chains, and
trajectory bookkeeping under arbitrary (population, helper, horizon)
sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.population import LearnerPopulation
from repro.game.repeated_game import StaticCapacities
from repro.mdp.markov_chain import stationary_distribution
from repro.sim.engine import Simulator


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_engine_fires_in_nondecreasing_time_order(delays):
    """Events always fire in non-decreasing time order, whatever the
    insertion order."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda s: fired.append(s.now))
    sim.run_until(100.0)
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_ergodic_chain_has_valid_stationary(size, seed):
    """Random strictly-positive transition matrices always yield a valid
    stationary distribution that is actually stationary."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(size, size))
    transition = raw / raw.sum(axis=1, keepdims=True)
    pi = stationary_distribution(transition)
    assert pi.shape == (size,)
    assert pi.sum() == pytest.approx(1.0)
    assert np.all(pi >= 0)
    assert np.allclose(pi @ transition, pi, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    num_peers=st.integers(min_value=1, max_value=25),
    num_helpers=st.integers(min_value=2, max_value=6),
    stages=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_population_trajectory_invariants(num_peers, num_helpers, stages, seed):
    """For any sizes: loads partition the population, utilities equal the
    even split of the chosen helper, strategies stay valid distributions
    above the exploration floor."""
    rng = np.random.default_rng(seed)
    caps = rng.uniform(100.0, 1000.0, size=num_helpers)
    population = LearnerPopulation(
        num_peers, num_helpers, u_max=1000.0, rng=seed
    )
    trajectory = population.run(StaticCapacities(caps), stages)

    assert np.all(trajectory.loads.sum(axis=1) == num_peers)
    for t in range(stages):
        actions = trajectory.actions[t]
        loads = trajectory.loads[t]
        expected = caps[actions] / loads[actions]
        assert np.allclose(trajectory.utilities[t], expected)
    strategies = population.strategies()
    assert np.allclose(strategies.sum(axis=1), 1.0)
    assert np.all(strategies >= population._delta / num_helpers - 1e-12)
