"""Programmatic reproduction of every paper figure.

One function per figure, each returning an :class:`ExperimentResult` with
the rendered text table (what the benchmark harness writes to
``benchmarks/output/``) and the headline metrics (what the benches assert
on).  The CLI (``python -m repro``) and the benchmarks are both thin
wrappers around these functions, so the experiment logic exists exactly
once.

Every figure declares its setup as a declarative
:class:`~repro.spec.ExperimentSpec` and builds its components (capacity
process, learner population, or the full streaming system) from the spec,
so the figure configurations are serializable and the build plumbing is
the same one the CLI and the sweep harness use.  The spec-built systems
reproduce the pre-spec RNG streams bit-for-bit, so figure outputs are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

import repro
from repro.analysis.reporting import render_series_table, render_table
from repro.game import RepeatedGameDriver, UniformRandomLearner
from repro.mdp import optimal_welfare_series, solve_symmetric_optimum
from repro.metrics import (
    jain_index,
    load_balance_report,
    moving_average,
    server_load_report,
    time_averaged_regret_series,
)
from repro.metrics.fairness import coefficient_of_variation, max_min_ratio
from repro.sim import TraceCapacityProcess, record_capacity_trace
from repro.spec import ExperimentSpec, LearnerSpec, TopologySpec


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one figure reproduction."""

    name: str
    text: str
    metrics: Dict[str, float]


def fig1_worst_player_regret(
    seed: int = 0,
    num_peers: int = 100,
    num_helpers: int = 10,
    num_stages: int = 3000,
    sample_every: int = 100,
) -> ExperimentResult:
    """Fig. 1 — evolution of the worst player's regret, large scale."""
    spec = repro.large_scale_spec(
        num_peers, num_helpers, num_stages, backend="scalar", seed=seed
    ).with_overrides({"learner.name": "rths"})
    process = spec.build_capacity_process(rng=seed)
    population = spec.build_population(rng=seed + 1)
    tracking = []

    def sample(stage, _):
        if (stage + 1) % sample_every == 0:
            tracking.append(population.worst_player_regret())

    trajectory = population.run(process, spec.rounds, stage_callback=sample)
    averaged = time_averaged_regret_series(
        trajectory, sample_every=sample_every, u_max=spec.u_max
    )
    table = render_series_table(
        ["time-averaged worst regret", "instantaneous tracking regret"],
        [averaged, np.asarray(tracking)],
        num_points=15,
    )
    text = table + (
        f"\nscenario: N={num_peers} H={num_helpers} "
        f"stages={num_stages} eps={spec.learner.epsilon}"
        f"\nfirst sample : {averaged[0]:.4f}"
        f"\nfinal sample : {averaged[-1]:.4f} "
        f"({averaged[-1] / averaged[0]:.1%} of initial)"
    )
    return ExperimentResult(
        name="fig1_regret",
        text=text,
        metrics={
            "first_regret": float(averaged[0]),
            "final_regret": float(averaged[-1]),
        },
    )


def fig2_welfare_vs_mdp(
    seed: int = 0, num_stages: int = 2000
) -> ExperimentResult:
    """Fig. 2 — RTHS welfare vs. the centralized MDP benchmark (N=10, H=4)."""
    spec = repro.small_scale_spec(
        num_stages, backend="scalar", seed=seed
    ).with_overrides({"learner.name": "rths"})
    num_peers = spec.topology.num_peers
    process = spec.build_capacity_process(rng=seed)
    stationary_optimum = solve_symmetric_optimum(process.chains, num_peers).value
    population = spec.build_population(rng=seed + 1)
    trajectory = population.run(process, spec.rounds)
    path_optimum = optimal_welfare_series(trajectory.capacities, num_peers)
    steady = float(trajectory.welfare[-num_stages // 4 :].mean())
    table = render_series_table(
        ["RTHS welfare (smoothed)", "per-stage MDP optimum"],
        [moving_average(trajectory.welfare, 50), path_optimum],
        num_points=15,
    )
    text = table + (
        f"\nscenario: N={num_peers} H={spec.topology.num_helpers}"
        f"\nstationary MDP optimum : {stationary_optimum:9.1f} kbit/s"
        f"\nRTHS steady-state mean : {steady:9.1f} kbit/s"
        f"\noptimality             : {steady / stationary_optimum:9.1%}"
    )
    return ExperimentResult(
        name="fig2_welfare",
        text=text,
        metrics={
            "optimum": stationary_optimum,
            "steady_welfare": steady,
            "optimality": steady / stationary_optimum,
        },
    )


def fig3_helper_load(
    seed: int = 0,
    num_peers: int = 40,
    num_helpers: int = 4,
    num_stages: int = 2000,
) -> ExperimentResult:
    """Fig. 3 — even load distribution across the helpers."""
    spec = ExperimentSpec(
        name="fig3_helper_load",
        backend="scalar",
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(num_peers=num_peers, num_helpers=num_helpers),
        learner=LearnerSpec(name="rths", epsilon=0.05),
    )
    process = spec.build_capacity_process(rng=seed)
    population = spec.build_population(rng=seed + 1)
    trajectory = population.run(process, spec.rounds)
    report = load_balance_report(trajectory, tail_fraction=0.5)
    loads_table = render_table(
        ["helper", "mean load", "proportional target"],
        [
            [j, float(report.mean_loads[j]), float(report.proportional_target[j])]
            for j in range(num_helpers)
        ],
    )
    cv_series = np.array(
        [coefficient_of_variation(row.astype(float)) for row in trajectory.loads]
    )
    cv_table = render_series_table(["per-stage load CV"], [cv_series], num_points=12)
    text = loads_table + "\n\n" + cv_table + (
        f"\nJain index of mean loads      : {report.jain:.4f}"
        f"\nCV of mean loads              : {report.cv:.4f}"
        f"\ndistance to proportional/peer : {report.distance_to_proportional:.4f}"
    )
    return ExperimentResult(
        name="fig3_helper_load",
        text=text,
        metrics={
            "jain": report.jain,
            "distance_to_proportional": report.distance_to_proportional,
        },
    )


def fig4_peer_rates(
    seed: int = 0,
    num_peers: int = 40,
    num_helpers: int = 4,
    num_stages: int = 2000,
) -> ExperimentResult:
    """Fig. 4 — helper bandwidth evenly distributed among peers."""
    spec = ExperimentSpec(
        name="fig4_peer_rates",
        backend="scalar",
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(num_peers=num_peers, num_helpers=num_helpers),
        learner=LearnerSpec(name="rths", epsilon=0.05),
    )
    env = spec.build_capacity_process(rng=seed)
    shared = record_capacity_trace(env, num_stages)

    population = spec.build_population(rng=seed + 1)
    rths = population.run(TraceCapacityProcess(shared.copy()), num_stages)
    random_learners = [
        UniformRandomLearner(num_helpers, rng=seed + 100 + i)
        for i in range(num_peers)
    ]
    random_traj = RepeatedGameDriver(
        random_learners, TraceCapacityProcess(shared.copy())
    ).run(num_stages)

    rths_rates = rths.tail(0.5).utilities.mean(axis=0)
    rand_rates = random_traj.tail(0.5).utilities.mean(axis=0)
    percentiles = np.arange(0, 101, 10)
    table = render_table(
        ["percentile", "RTHS rate kbit/s", "random rate kbit/s"],
        [
            [f"p{p}", float(np.percentile(rths_rates, p)),
             float(np.percentile(rand_rates, p))]
            for p in percentiles
        ],
    )
    rths_stage_jain = float(
        np.mean([jain_index(row) for row in rths.tail(0.5).utilities])
    )
    rand_stage_jain = float(
        np.mean([jain_index(row) for row in random_traj.tail(0.5).utilities])
    )
    rths_jain = jain_index(rths_rates)
    text = table + (
        f"\ntime-averaged rates:"
        f"\n  Jain (RTHS)   : {rths_jain:.4f}   max/min {max_min_ratio(rths_rates):.3f}"
        f"\n  Jain (random) : {jain_index(rand_rates):.4f}   "
        f"max/min {max_min_ratio(rand_rates):.3f}"
        f"\nper-stage (instantaneous) rates:"
        f"\n  Jain (RTHS)   : {rths_stage_jain:.4f}"
        f"\n  Jain (random) : {rand_stage_jain:.4f}"
    )
    return ExperimentResult(
        name="fig4_peer_rates",
        text=text,
        metrics={
            "jain_time_averaged": float(rths_jain),
            "stage_jain_rths": rths_stage_jain,
            "stage_jain_random": rand_stage_jain,
        },
    )


def fig5_server_load(seed: int = 0, num_stages: int = 1200) -> ExperimentResult:
    """Fig. 5 — real server workload vs. minimum bandwidth deficit."""
    spec = repro.fig5_spec(num_stages, backend="scalar", seed=seed)
    trace = spec.run(seed=seed).trace
    report = server_load_report(trace)
    steady = float(report.server_load[num_stages // 6 :].mean())
    bound = float(report.min_deficit.mean())
    table = render_series_table(
        ["real server load", "min bandwidth deficit", "no-helper load"],
        [report.server_load, report.min_deficit, report.no_helper_load],
        num_points=15,
    )
    text = table + (
        f"\nsteady-state server load : {steady:8.1f} kbit/s"
        f"\nminimum bandwidth deficit: {bound:8.1f} kbit/s"
        f"\nno-helper load           : {report.no_helper_load.mean():8.1f} kbit/s"
        f"\nhelpers absorb           : {report.saving_fraction:8.1%} of demand"
    )
    return ExperimentResult(
        name="fig5_server_load",
        text=text,
        metrics={
            "steady_server_load": steady,
            "min_deficit": bound,
            "saving_fraction": float(report.saving_fraction),
        },
    )


ALL_FIGURES = {
    "fig1": fig1_worst_player_regret,
    "fig2": fig2_welfare_vs_mdp,
    "fig3": fig3_helper_load,
    "fig4": fig4_peer_rates,
    "fig5": fig5_server_load,
}
