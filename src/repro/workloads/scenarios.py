"""The paper's experiment scenarios, as spec factories.

Section IV fixes the environment (helper bandwidth switching over
``[700, 800, 900]``) and varies scale.  Every preset here returns an
:class:`~repro.spec.ExperimentSpec` and takes its scale, then
``num_stages``, ``backend`` and ``seed``:

* :func:`small_scale_spec` — "N = 10 peers and |H| = 4 helpers" used
  for the RTHS-vs-centralized-MDP comparison (Fig. 2).
* :func:`large_scale_spec` — the "large-scale cooperative multi-channel"
  run behind Fig. 1 (exact size unreported; we default to N=100, H=10 and
  expose both as parameters).
* :func:`fig5_spec` — a demand-bearing configuration where aggregate
  demand exceeds the helpers' minimum provisioned bandwidth, so the server
  carries a structural deficit (the Fig. 5 regime).
* :func:`massive_scale_spec` and :func:`heterogeneous_spec` — extension
  settings (population scale; strong and weak helper classes), and the
  load-skew families from :func:`popularity_skew_spec` on.

The first four register as ``small_scale``, ``large_scale``, ``fig5``
and ``massive_scale``.  Learner hyper-parameters (unreported in
the paper) keep the :class:`~repro.spec.LearnerSpec` defaults
``epsilon=0.05, delta=0.1, mu = 2 (H-1)`` in normalized units and are
swept by the ablation benches.  Build a preset's parts with
``spec.build_capacity_process(rng)`` and ``spec.build_population(rng)``,
or the whole system with ``spec.build(rng)``.
"""

from __future__ import annotations

from repro.sim.bandwidth import MarkovCapacityProcess
from repro.spec import (
    CapacitySpec,
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    TopologySpec,
    TransformSpec,
    register_scenario,
)
from repro.util.rng import Seedish, as_generator


def small_scale_spec(
    num_stages: int = 2000, backend: str = "vectorized", seed: int = 0
) -> ExperimentSpec:
    """Paper Fig. 2 setting: N = 10 peers, H = 4 helpers."""
    return ExperimentSpec(
        name="small-scale",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(num_peers=10, num_helpers=4),
    )


def large_scale_spec(
    num_peers: int = 100,
    num_helpers: int = 10,
    num_stages: int = 3000,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """Paper Fig. 1 setting (scale unreported; defaults N=100, H=10)."""
    return ExperimentSpec(
        name="large-scale",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(num_peers=num_peers, num_helpers=num_helpers),
    )


def fig5_spec(
    num_stages: int = 1500, backend: str = "vectorized", seed: int = 0
) -> ExperimentSpec:
    """Fig. 5 setting: demands exceed the helpers' minimum bandwidth.

    40 peers at 100 kbit/s each (4000 total) against 4 helpers with minimum
    aggregate 2800 kbit/s: the minimum deficit is 1200 kbit/s, and good
    selection should keep realized server load near it.
    """
    return ExperimentSpec(
        name="fig5-server-load",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=40, num_helpers=4, channel_bitrates=100.0
        ),
    )


def massive_scale_spec(
    num_peers: int = 100_000,
    num_helpers: int = 200,
    num_channels: int = 4,
    num_stages: int = 200,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """Population-scale multi-channel scenario for the vectorized runtime.

    Not a paper figure — the regime the ROADMAP's north star targets
    (10⁵–10⁶ viewers), far beyond what per-object peers can advance.  The
    scalar backend at this size is minutes per round.  Demand is set
    below the per-peer helper share so welfare, not the origin server, is
    the interesting series; crank ``num_peers`` further to study the
    load-skew regime.
    """
    return ExperimentSpec(
        name="massive-scale",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=num_peers,
            num_helpers=num_helpers,
            num_channels=num_channels,
            channel_bitrates=100.0,
        ),
    )


def heterogeneous_spec(
    num_stages: int = 2000, backend: str = "vectorized", seed: int = 0
) -> ExperimentSpec:
    """Helpers of two classes: strong (fiber) and weak (DSL) uploaders.

    Not a paper figure — an extension scenario exercising the asymmetric
    regime where helper selection actually matters for welfare (with
    symmetric helpers, any non-degenerate rule is near-optimal; see the
    README backend guide).  Its environment is
    :func:`make_heterogeneous_process`: four helpers at levels
    [1400, 1600, 1800] and four at [350, 400, 450]; the proportional split
    is 4:1.
    """
    return ExperimentSpec(
        name="heterogeneous-helpers",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(num_peers=40, num_helpers=8),
        capacity=CapacitySpec(
            levels=(350.0, 400.0, 450.0, 1400.0, 1600.0, 1800.0)
        ),
    )


def make_heterogeneous_process(
    spec: ExperimentSpec, rng: Seedish = None
) -> MarkovCapacityProcess:
    """Environment for :func:`heterogeneous_spec`.

    Half the helpers switch over the strong levels (the upper half of
    ``spec.capacity.levels``), half over the weak ones (each a slow
    birth-death chain with the spec's stay probability).
    """
    from repro.mdp.markov_chain import birth_death_chain
    from repro.util.rng import spawn_many

    levels = list(spec.capacity.levels)
    if len(levels) % 2 != 0:
        raise ValueError("spec must carry an even number of capacity levels "
                         "(weak half + strong half)")
    half = len(levels) // 2
    weak_levels, strong_levels = levels[:half], levels[half:]
    num_helpers = spec.topology.num_helpers
    children = spawn_many(as_generator(rng), num_helpers)
    chains = []
    for j, child in enumerate(children):
        chosen = strong_levels if j < num_helpers // 2 else weak_levels
        chains.append(
            birth_death_chain(
                chosen,
                stay_probability=spec.capacity.stay_probability,
                rng=child,
            )
        )
    return MarkovCapacityProcess(chains)


# ----------------------------------------------------------------------
# Load-skew scenario families
# ----------------------------------------------------------------------


def popularity_skew_spec(
    num_peers: int = 20_000,
    num_helpers: int = 100,
    num_channels: int = 10,
    zipf_exponent: float = 1.0,
    num_stages: int = 100,
    demand_per_peer: float = 100.0,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """Popularity-skewed multi-channel load (the ROADMAP load-skew item).

    Channels draw viewers by Zipf weights (measurement studies of
    PPLive/UUSee-class deployments, paper refs. [1][11]) while helpers
    stay round-robin-partitioned — so hot channels run peer-heavy and the
    interesting series is how selection shares the overload.  Built for
    the vectorized runtime where the environment is cheap at this scale.
    """
    from repro.workloads.popularity import zipf_popularity

    return ExperimentSpec(
        name="popularity-skew",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=num_peers,
            num_helpers=num_helpers,
            num_channels=num_channels,
            channel_bitrates=demand_per_peer,
            channel_popularity=tuple(
                zipf_popularity(num_channels, zipf_exponent)
            ),
        ),
        learner=LearnerSpec(name="r2hs"),
    )


def flash_crowd_spec(
    num_peers: int = 2_000,
    num_helpers: int = 40,
    num_channels: int = 4,
    zipf_exponent: float = 1.2,
    arrival_rate: float = 25.0,
    mean_lifetime: float = 60.0,
    channel_switch_rate: float = 0.0,
    num_stages: int = 150,
    demand_per_peer: float = 100.0,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """A flash crowd: heavy Poisson arrivals piling onto Zipf-hot channels.

    The initial population is the calm before the event; ``arrival_rate``
    then adds ~``arrival_rate × mean_lifetime`` transient viewers whose
    channel draws follow the skewed popularity, concentrating load on the
    hot channels' helper blocks while lifetimes churn the crowd through.
    Exercises the free-list/bank-row reuse paths at scale.
    """
    from repro.workloads.popularity import zipf_popularity

    return ExperimentSpec(
        name="flash-crowd",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=num_peers,
            num_helpers=num_helpers,
            num_channels=num_channels,
            channel_bitrates=demand_per_peer,
            channel_popularity=tuple(
                zipf_popularity(num_channels, zipf_exponent)
            ),
            channel_switch_rate=channel_switch_rate,
        ),
        learner=LearnerSpec(name="r2hs"),
        churn=ChurnSpec(
            arrival_rate=arrival_rate,
            mean_lifetime=mean_lifetime,
            initial_peer_lifetimes=True,
        ),
    )


def helper_failures_spec(
    num_peers: int = 5_000,
    num_helpers: int = 60,
    num_channels: int = 6,
    failure_rate: float = 0.02,
    mean_outage_rounds: float = 15.0,
    arrival_rate: float = 10.0,
    mean_lifetime: float = 80.0,
    num_stages: int = 200,
    demand_per_peer: float = 100.0,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """Helper crashes and recoveries under heavy churn (the ROADMAP item).

    Helpers are volunteers: each round every healthy one fails with
    probability ``failure_rate`` and stays dark for a geometric outage
    (mean ``mean_outage_rounds``) — the
    :class:`~repro.sim.failures.CorrelatedFailureProcess` with one
    failure domain per helper, wrapped around the paper environment via
    the registered ``"failures"`` capacity transform.  Peers discover
    outages only through a zero rate (bandit feedback), while Poisson
    churn keeps the population itself moving — the churn-heavy
    adaptation workload the fused multi-channel engine is exercised
    under.
    """
    return ExperimentSpec(
        name="helper-failures",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=num_peers,
            num_helpers=num_helpers,
            num_channels=num_channels,
            channel_bitrates=demand_per_peer,
        ),
        capacity=CapacitySpec(
            backend="vectorized",
            transforms=(
                TransformSpec(
                    name="failures",
                    options={
                        "failure_rate": failure_rate,
                        "mean_outage_rounds": mean_outage_rounds,
                    },
                ),
            ),
        ),
        learner=LearnerSpec(name="r2hs"),
        churn=ChurnSpec(
            arrival_rate=arrival_rate,
            mean_lifetime=mean_lifetime,
            initial_peer_lifetimes=True,
        ),
    )


def popularity_drift_spec(
    num_peers: int = 10_000,
    num_helpers: int = 80,
    num_channels: int = 20,
    zipf_exponent: float = 1.0,
    drift_rate: float = 0.1,
    drift_period: float = 20.0,
    channel_switch_rate: float = 5.0,
    arrival_rate: float = 20.0,
    mean_lifetime: float = 60.0,
    num_stages: int = 200,
    demand_per_peer: float = 100.0,
    backend: str = "vectorized",
    seed: int = 0,
) -> ExperimentSpec:
    """Diurnal popularity drift: the hot channels move through the day.

    Starts from a Zipf profile and re-mixes the channel weights every
    ``drift_period`` time units at ``drift_rate`` (see
    :func:`repro.workloads.popularity.popularity_drift`); churn arrivals
    and viewer channel switches follow the drifting weights, so channel
    populations — and with them the per-channel learner loads — migrate
    continuously.  The skew-*shifting* companion to the static
    ``popularity_skew`` family, sized for the fused multi-channel engine
    (C = 20 channels by default).
    """
    from repro.workloads.popularity import zipf_popularity

    return ExperimentSpec(
        name="popularity-drift",
        backend=backend,
        rounds=num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=num_peers,
            num_helpers=num_helpers,
            num_channels=num_channels,
            channel_bitrates=demand_per_peer,
            channel_popularity=tuple(
                zipf_popularity(num_channels, zipf_exponent)
            ),
            channel_switch_rate=channel_switch_rate,
            popularity_drift_rate=drift_rate,
            popularity_drift_period=drift_period,
        ),
        learner=LearnerSpec(name="r2hs"),
        churn=ChurnSpec(
            arrival_rate=arrival_rate,
            mean_lifetime=mean_lifetime,
            initial_peer_lifetimes=True,
        ),
    )


register_scenario("small_scale", small_scale_spec)
register_scenario("large_scale", large_scale_spec)
register_scenario("fig5", fig5_spec)
register_scenario("massive_scale", massive_scale_spec)
register_scenario("popularity_skew", popularity_skew_spec)
register_scenario("flash_crowd", flash_crowd_spec)
register_scenario("helper_failures", helper_failures_spec)
register_scenario("popularity_drift", popularity_drift_spec)
