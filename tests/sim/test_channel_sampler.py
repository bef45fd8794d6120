"""The cached-CDF channel draw is ``Generator.choice(C, p=w)``, draw for draw.

Both streaming systems draw initial channels, churn joins and viewer
switches through :class:`~repro.sim.system.ChannelSampler`; every trace
depends on it returning the channel ``choice`` would, and on it leaving
the generator exactly where ``choice`` leaves it.
"""

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.system import ChannelSampler, install_popularity_drift
from repro.spec import ExperimentSpec, LearnerSpec, TopologySpec
from repro.util.validation import normalized_channel_weights
from repro.workloads.popularity import popularity_drift

SEEDS = range(1_000)


def random_weights(seed):
    """A normalized weight vector over 1..60 channels, some weights zero."""
    gen = np.random.default_rng(seed)
    num_channels = int(gen.integers(1, 61))
    weights = gen.random(num_channels)
    weights[gen.random(num_channels) < 0.3] = 0.0
    if weights.sum() == 0:
        weights[gen.integers(num_channels)] = 1.0
    return num_channels, normalized_channel_weights(num_channels, weights)


def twins(seed):
    return np.random.default_rng(10**6 + seed), np.random.default_rng(10**6 + seed)


def test_weights_cover_the_intended_range():
    drawn = [random_weights(seed) for seed in SEEDS]
    sizes = {c for c, _ in drawn}
    assert min(sizes) == 1 and max(sizes) == 60
    assert sum(np.any(w == 0) for _, w in drawn) > 500


def test_scalar_draws_match_generator_choice():
    for seed in SEEDS:
        num_channels, weights = random_weights(seed)
        sampler = ChannelSampler(weights)
        ours, theirs = twins(seed)
        for _ in range(5):
            got = int(sampler.draw(ours))
            want = int(theirs.choice(num_channels, p=weights))
            assert got == want, seed
        assert ours.bit_generator.state == theirs.bit_generator.state, seed


def test_bulk_draws_match_generator_choice():
    for seed in SEEDS:
        num_channels, weights = random_weights(seed)
        sampler = ChannelSampler(weights)
        ours, theirs = twins(seed)
        size = 1 + seed % 40
        got = sampler.draw(ours, size)
        want = theirs.choice(num_channels, size=size, p=weights)
        assert np.array_equal(got, want), seed
        assert ours.bit_generator.state == theirs.bit_generator.state, seed


def test_zero_weight_channels_are_never_drawn():
    weights = normalized_channel_weights(4, [0.0, 1.0, 0.0, 3.0])
    draws = ChannelSampler(weights).draw(np.random.default_rng(0), 20_000)
    assert set(np.unique(draws).tolist()) == {1, 3}


def test_set_weights_rebuilds_the_cdf():
    sampler = ChannelSampler(normalized_channel_weights(3, None))
    new = normalized_channel_weights(3, [0.2, 0.0, 0.8])
    sampler.set_weights(new)
    assert sampler.weights is new
    ours, theirs = twins(3)
    got = sampler.draw(ours, 500)
    assert np.array_equal(got, theirs.choice(3, size=500, p=new))
    assert not np.any(got == 1)


def test_popularity_drift_moves_the_draws():
    """The drift process writes through the sampler: the next draws follow
    the drifted weights, exactly as ``choice`` over them would."""
    spec = ExperimentSpec(
        topology=TopologySpec(
            num_peers=1, num_helpers=5, num_channels=5,
            popularity_drift_rate=0.5, popularity_drift_period=1.0,
        ),
        learner=LearnerSpec(name="uniform"),  # one helper per channel
    )
    start = normalized_channel_weights(5, [5.0, 4.0, 3.0, 2.0, 1.0])
    sampler = ChannelSampler(start)
    sim = Simulator()
    install_popularity_drift(sim, spec, np.random.default_rng(11), sampler)
    sim.run_until(2.0)  # two drift steps
    twin = np.random.default_rng(11)
    expected = popularity_drift(start, 0.5, rng=twin)
    expected = popularity_drift(expected, 0.5, rng=twin)
    assert np.array_equal(sampler.weights, expected)
    assert not np.allclose(sampler.weights, start)
    ours, theirs = twins(5)
    assert np.array_equal(
        sampler.draw(ours, 1_000), theirs.choice(5, size=1_000, p=expected)
    )

