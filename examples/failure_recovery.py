#!/usr/bin/env python
"""Helper failures: watch RTHS evacuate a dead helper and re-balance.

Helpers are volunteer peers and can vanish mid-stream.  This example
converges a population on four healthy helpers, kills one, and uses the
convergence diagnostics to show what happens:

* loads drain off the dead helper within tens of stages (bounded by the
  exploration re-entry trap documented in ``repro.core.proxy_regret``);
* the sliding-window CE regret spikes at the failure and settles again —
  the population re-converges to the CE set of the 3-helper game;
* when the helper recovers, peers flow back.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.analysis import render_series_table
from repro.core import LearnerPopulation, sliding_ce_regret
from repro.game.repeated_game import StaticCapacities
from repro.sim.failures import CorrelatedFailureProcess

NUM_PEERS = 16
NUM_HELPERS = 4
CAPACITY = 800.0
PHASE = 400  # stages per phase: healthy -> failed -> recovered


def main() -> None:
    base = StaticCapacities([CAPACITY] * NUM_HELPERS)
    # One failure domain per helper, none failing on its own: the
    # example switches helper 0's domain off and on by hand.
    process = CorrelatedFailureProcess(
        base, num_groups=NUM_HELPERS, group_failure_rate=0.0,
        mean_outage_rounds=1e9, rng=0,
    )
    population = LearnerPopulation(
        NUM_PEERS, NUM_HELPERS,
        epsilon=0.01, delta=0.1, mu=0.25, u_max=900.0, rng=1,
    )

    print(f"{NUM_PEERS} peers, {NUM_HELPERS} helpers at {CAPACITY:.0f} kbit/s; "
          f"helper 0 fails at stage {PHASE} and recovers at {2 * PHASE}\n")

    healthy = population.run(process, PHASE)
    process._group_failed[0] = True    # helper 0 goes down
    failed = population.run(process, PHASE)
    process._group_failed[0] = False   # and comes back
    recovered = population.run(process, PHASE)

    # Stitch the three phases for reporting.
    loads0 = np.concatenate(
        [healthy.loads[:, 0], failed.loads[:, 0], recovered.loads[:, 0]]
    ).astype(float)
    welfare = np.concatenate(
        [healthy.welfare, failed.welfare, recovered.welfare]
    )
    print("Load on helper 0 and total welfare over time")
    print(render_series_table(
        ["helper-0 load", "welfare kbit/s"],
        [loads0, welfare],
        num_points=12,
    ))

    for label, trajectory in [("healthy", healthy), ("failed", failed),
                              ("recovered", recovered)]:
        window = sliding_ce_regret(trajectory, window=100, u_max=900.0)
        tail_load = trajectory.loads[-100:, 0].mean()
        print(f"\nphase {label:10s}: helper-0 tail load {tail_load:5.2f}   "
              f"sliding CE regret {np.round(window, 3).tolist()}")

    print("\nInterpretation: the dead helper drains to the exploration floor "
          "(plus the re-entry trap residue), the CE regret spike decays as "
          "the population re-converges, and recovery repopulates helper 0.")


if __name__ == "__main__":
    main()
