#!/usr/bin/env python
"""Tracking a drifting environment: regret tracking vs. its ancestors.

The paper's core argument for *tracking* (constant step size) over classic
regret *matching* (uniform averaging) is adaptation: when helper bandwidth
drifts, uniform averages go stale.  This example engineers a hard drift —
halfway through the run the dominant helper's capacity collapses and a
previously weak helper surges — and compares strategies on the *same*
environment realization:

* R2HS (regret tracking, constant eps)
* regret matching (eps_n = 1/n), same mu
* epsilon-greedy bandit
* sticky random (the fixed-overlay strawman of prior helper systems)

Scoring uses the load-misallocation metric of Fig. 3 (L1 distance between
realized helper loads and the capacity-proportional target, per peer):
welfare alone barely discriminates because any selection rule that keeps
every helper occupied scores near the welfare optimum.

Expected shape (the paper's Sec. II argument): matching is *better* while
the environment is stationary (uniform averaging has lower variance) but
collapses right after the drift; tracking pays a small stationary premium
and adapts almost immediately.

Run:  python examples/churn_adaptation.py
"""

import numpy as np

from repro.analysis import render_table
from repro.core import R2HSLearner, regret_matching_learner
from repro.game import EpsilonGreedyLearner, RepeatedGameDriver, StickyLearner
from repro.sim import TraceCapacityProcess

NUM_PEERS = 12
NUM_HELPERS = 3
STAGES = 2000
DRIFT = STAGES // 2
MU = 0.25  # same switching eagerness for both regret learners


def drifting_capacity_trace() -> np.ndarray:
    """Helper 0 dominates the first half, helper 2 the second."""
    trace = np.zeros((STAGES, NUM_HELPERS))
    trace[:DRIFT] = [900.0, 500.0, 200.0]
    trace[DRIFT:] = [200.0, 500.0, 900.0]
    return trace


def misallocation(trajectory, lo, hi) -> float:
    """Per-peer L1 distance between mean loads and proportional targets."""
    loads = trajectory.loads[lo:hi].mean(axis=0)
    caps = trajectory.capacities[lo:hi].mean(axis=0)
    target = NUM_PEERS * caps / caps.sum()
    return float(np.abs(loads - target).sum() / NUM_PEERS)


def run(label, factory):
    learners = [factory(i) for i in range(NUM_PEERS)]
    driver = RepeatedGameDriver(
        learners, TraceCapacityProcess(drifting_capacity_trace())
    )
    trajectory = driver.run(STAGES)
    return {
        "strategy": label,
        "stationary": misallocation(trajectory, DRIFT - 200, DRIFT),
        "after drift": misallocation(trajectory, DRIFT, DRIFT + 200),
        "final": misallocation(trajectory, STAGES - 200, STAGES),
        "welfare": float(trajectory.welfare[-200:].mean()),
    }


def main() -> None:
    u_max = 900.0
    rows = [
        run("R2HS (tracking)", lambda i: R2HSLearner(
            NUM_HELPERS, rng=100 + i, epsilon=0.02, mu=MU, u_max=u_max)),
        run("regret matching", lambda i: regret_matching_learner(
            NUM_HELPERS, rng=200 + i, mu=MU, u_max=u_max)),
        run("epsilon-greedy", lambda i: EpsilonGreedyLearner(
            NUM_HELPERS, rng=300 + i, epsilon=0.1)),
        run("sticky random", lambda i: StickyLearner(
            NUM_HELPERS, rng=400 + i, switch_probability=0.01)),
    ]

    print(f"{NUM_PEERS} peers, {NUM_HELPERS} helpers; capacities flip at "
          f"stage {DRIFT}: [900,500,200] -> [200,500,900]")
    print("Scores: load misallocation per peer (lower is better)\n")
    print(render_table(
        ["strategy", "stationary", "after drift", "final", "welfare kbit/s"],
        [[r["strategy"], r["stationary"], r["after drift"], r["final"],
          r["welfare"]] for r in rows],
    ))
    track = rows[0]
    match = rows[1]
    print(f"\nTracking-vs-matching after the drift: "
          f"{match['after drift'] / max(track['after drift'], 1e-9):.2f}x "
          f"lower misallocation for tracking")


if __name__ == "__main__":
    main()
