#!/usr/bin/env python
"""Quickstart: decentralized helper selection with R2HS.

Runs the paper's small-scale scenario (10 peers, 4 helpers, bandwidth
switching over [700, 800, 900] kbit/s), then reports:

* social welfare vs. the centralized MDP optimum (paper Fig. 2),
* worst-player time-averaged regret decay (paper Fig. 1),
* helper-load balance and per-peer fairness (paper Figs. 3-4).

Run:  python examples/quickstart.py
"""

import repro
from repro.analysis import render_series_table, sparkline
from repro.core import empirical_ce_regret
from repro.mdp import solve_symmetric_optimum
from repro.metrics import (
    jain_index,
    load_balance_report,
    time_averaged_regret_series,
)


def main() -> None:
    scenario = repro.small_scale_scenario(num_stages=2000)
    process = scenario.to_spec(backend="scalar").build_capacity_process(rng=1)
    population = repro.make_learner_population(scenario, rng=2)

    print(f"Scenario: {scenario.name}  N={scenario.num_peers} peers, "
          f"H={scenario.num_helpers} helpers, {scenario.num_stages} stages")
    print(f"Learner: R2HS  eps={scenario.epsilon} delta={scenario.delta}\n")

    trajectory = population.run(process, scenario.num_stages)

    # --- Fig. 2: welfare vs. the centralized MDP benchmark -------------
    optimum = solve_symmetric_optimum(process.chains, scenario.num_peers).value
    steady = trajectory.welfare[-500:].mean()
    print("Social welfare (kbit/s)")
    print(f"  centralized MDP optimum : {optimum:8.1f}")
    print(f"  R2HS steady state       : {steady:8.1f}  "
          f"({100 * steady / optimum:.1f}% of optimal)")
    print(f"  welfare over time       : {sparkline(trajectory.welfare)}\n")

    # --- Fig. 1: worst-player regret decay -----------------------------
    regret = time_averaged_regret_series(trajectory, sample_every=100,
                                         u_max=scenario.u_max)
    print("Worst-player time-averaged regret (normalized)")
    print(render_series_table(["regret"], [regret], num_points=10))
    print(f"  final CE regret: {empirical_ce_regret(trajectory, u_max=scenario.u_max):.4f}\n")

    # --- Figs. 3-4: load balance and fairness --------------------------
    balance = load_balance_report(trajectory)
    print("Helper load balance (steady-state tail)")
    for j in range(scenario.num_helpers):
        print(f"  helper {j}: mean load {balance.mean_loads[j]:5.2f}  "
              f"(proportional target {balance.proportional_target[j]:5.2f})")
    print(f"  Jain index of loads    : {balance.jain:.4f}")
    per_peer = trajectory.tail(0.4).utilities.mean(axis=0)
    print(f"  Jain index of peer rates: {jain_index(per_peer):.4f}")
    print(f"  peer rates (kbit/s)    : min {per_peer.min():.0f}  "
          f"mean {per_peer.mean():.0f}  max {per_peer.max():.0f}")


if __name__ == "__main__":
    main()
