"""Ablation A5 — robustness to peer churn.

Paper Sec. I lists join/leave dynamics among the non-stationarities the
adaptive algorithm must survive.  This bench runs the discrete-event
system at increasing churn intensities (Poisson arrivals + exponential
lifetimes, balanced so the mean population stays comparable) and reports
steady-state per-peer rate fairness and server load per online peer.

Expected shape: graceful degradation — fairness stays high and per-peer
server load grows only mildly with churn, because new peers' learners
re-converge quickly against the already-balanced incumbents.
"""

import numpy as np

import repro
from repro.analysis import render_table
from repro.metrics import jain_index
from repro.sim import StreamingSystem
from repro.spec import ChurnSpec, ExperimentSpec, TopologySpec

from conftest import write_artifact

NUM_PEERS = 30
NUM_HELPERS = 4
ROUNDS = 800
BITRATE = 100.0

CHURN_LEVELS = [
    ("none", ChurnSpec()),
    ("mild", ChurnSpec(arrival_rate=0.1, mean_lifetime=300.0)),
    ("moderate", ChurnSpec(arrival_rate=0.3, mean_lifetime=100.0)),
    ("heavy", ChurnSpec(arrival_rate=0.6, mean_lifetime=50.0)),
]


def run_experiment(seed: int = 0):
    rows = []
    for idx, (label, churn) in enumerate(CHURN_LEVELS):
        spec = ExperimentSpec(
            backend="scalar",
            topology=TopologySpec(
                num_peers=NUM_PEERS,
                num_helpers=NUM_HELPERS,
                channel_bitrates=BITRATE,
            ),
            churn=churn,
        )
        system = StreamingSystem(
            spec,
            lambda h, rng: repro.R2HSLearner(h, rng=rng, u_max=900.0),
            rng=seed + idx,
        )
        trace = system.run(ROUNDS)
        # Fairness over peers that saw a meaningful number of rounds.
        rates = np.array(
            [p.average_rate for p in system.peers if p.rounds_participated >= 50]
        )
        tail_load = trace.server_load[ROUNDS // 2 :]
        tail_online = trace.online_peers[ROUNDS // 2 :]
        rows.append(
            {
                "churn": label,
                "mean_online": float(tail_online.mean()),
                "jain": jain_index(rates),
                "server_per_peer": float(
                    (tail_load / np.maximum(tail_online, 1)).mean()
                ),
            }
        )
    return rows


def test_ablation_churn_robustness(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = render_table(
        ["churn", "mean online peers", "Jain of peer rates",
         "server load / peer (kbit/s)"],
        [
            [r["churn"], r["mean_online"], r["jain"], r["server_per_peer"]]
            for r in rows
        ],
    )
    write_artifact("ablation_churn", table)
    # Graceful degradation: fairness stays high at every churn level.
    for r in rows:
        assert r["jain"] > 0.85, r
    # Heavier churn should not blow up per-peer server load by more than ~4x
    # relative to the churn-free run (allowing for population drift).
    base = max(rows[0]["server_per_peer"], 1.0)
    assert rows[-1]["server_per_peer"] < base * 4 + 40.0
