"""Ablation A4 — Algorithm 1 (direct sums) vs. Algorithm 2 (recursive).

The paper introduces R2HS because evaluating Eq. (3-3) directly "will
consume too much resource".  This bench quantifies that: per-stage cost of
the exact history-based estimator (the reference oracle
:class:`~repro.core.proxy_regret.ExactProxyRegret`, driven by a
:class:`~repro.core.regret_learner.RegretLearner`) grows linearly with the
horizon, while the recursive form is O(H^2) flat.  Both produce identical
decisions (asserted in the unit tests); here we measure runtime only.

Expected shape: the recursive learner is orders of magnitude faster at
moderate horizons, and its per-stage cost does not grow with n.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import ExactProxyRegret, R2HSLearner
from repro.core.regret_learner import RegretLearner

from conftest import write_artifact

NUM_HELPERS = 4
HORIZON = 300


def exact_rths(num_actions, rng, u_max):
    """Algorithm 1 with its literal history sums."""
    return RegretLearner(
        num_actions, ExactProxyRegret(num_actions), rng=rng, u_max=u_max
    )


def drive(learner, stages, seed=0):
    env = np.random.default_rng(seed)
    for _ in range(stages):
        action = learner.act()
        learner.observe(action, float(env.uniform(100, 900)))


def test_recursive_r2hs_runtime(benchmark):
    def run():
        learner = R2HSLearner(NUM_HELPERS, rng=1, u_max=900.0)
        drive(learner, HORIZON)
        return learner

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_exact_rths_runtime(benchmark):
    def run():
        learner = exact_rths(NUM_HELPERS, rng=1, u_max=900.0)
        drive(learner, HORIZON)
        return learner

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stage == HORIZON


def test_ablation_recursive_speedup_summary(benchmark):
    """Measure both in one run and write the comparison artifact."""
    import time

    def run():
        timings = {}
        for label, cls in [("R2HS (recursive)", R2HSLearner),
                           ("RTHS (direct sums)", exact_rths)]:
            learner = cls(NUM_HELPERS, rng=1, u_max=900.0)
            start = time.perf_counter()
            drive(learner, HORIZON)
            timings[label] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = timings["RTHS (direct sums)"] / timings["R2HS (recursive)"]
    table = render_table(
        ["algorithm", f"time for {HORIZON} stages (s)"],
        [[k, float(v)] for k, v in timings.items()],
    )
    write_artifact(
        "ablation_recursive",
        table + f"\nrecursive speedup: {speedup:.1f}x at horizon {HORIZON}",
    )
    assert speedup > 2.0
