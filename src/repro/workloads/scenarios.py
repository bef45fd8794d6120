"""The paper's experiment scenarios, as reusable bundles.

Section IV fixes the environment (helper bandwidth switching over
``[700, 800, 900]``) and varies scale:

* :func:`small_scale_scenario` — "N = 10 peers and |H| = 4 helpers" used
  for the RTHS-vs-centralized-MDP comparison (Fig. 2).
* :func:`large_scale_scenario` — the "large-scale cooperative multi-channel"
  run behind Fig. 1 (exact size unreported; we default to N=100, H=10 and
  expose both as parameters).
* :func:`fig5_scenario` — a demand-bearing configuration where aggregate
  demand exceeds the helpers' minimum provisioned bandwidth, so the server
  carries a structural deficit (the Fig. 5 regime).

Learner hyper-parameters (unreported in the paper) default to
``epsilon=0.05, delta=0.1, mu = 2 (H-1)`` in normalized units and are swept
by the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.population import LearnerPopulation
from repro.sim.bandwidth import PAPER_BANDWIDTH_LEVELS, MarkovCapacityProcess
from repro.spec import (
    CapacitySpec,
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    TopologySpec,
    TransformSpec,
    register_scenario,
)
from repro.util.rng import Seedish, as_generator


@dataclass(frozen=True)
class Scenario:
    """A named, fully-parameterized experiment setup."""

    name: str
    num_peers: int
    num_helpers: int
    bandwidth_levels: Tuple[float, ...] = PAPER_BANDWIDTH_LEVELS
    stay_probability: float = 0.9
    epsilon: float = 0.05
    delta: float = 0.1
    mu: Optional[float] = None
    demand_per_peer: Optional[float] = None
    num_stages: int = 2000
    num_channels: int = 1

    def __post_init__(self) -> None:
        if self.num_peers < 1 or self.num_helpers < 2:
            raise ValueError("need num_peers >= 1 and num_helpers >= 2")
        if not 0 < self.epsilon <= 1 or not 0 < self.delta < 1:
            raise ValueError("epsilon in (0,1], delta in (0,1) required")
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        if self.num_channels < 1 or self.num_helpers < 2 * self.num_channels:
            # Helpers partition round-robin across channels and the regret
            # learners need an action set of at least two, so every channel
            # must receive two or more helpers.
            raise ValueError(
                "need num_channels >= 1 and at least two helpers per channel"
            )

    @property
    def u_max(self) -> float:
        """Utility normalizer: the highest bandwidth level."""
        return float(max(self.bandwidth_levels))

    def to_spec(self, **kwargs) -> ExperimentSpec:
        """This scenario as an :class:`~repro.spec.ExperimentSpec`.

        See :func:`spec_for_scenario` for the keyword arguments.
        """
        return spec_for_scenario(self, **kwargs)


def small_scale_scenario(num_stages: int = 2000) -> Scenario:
    """Paper Fig. 2 setting: N = 10 peers, H = 4 helpers."""
    return Scenario(
        name="small-scale",
        num_peers=10,
        num_helpers=4,
        num_stages=num_stages,
    )


def large_scale_scenario(
    num_peers: int = 100,
    num_helpers: int = 10,
    num_stages: int = 3000,
) -> Scenario:
    """Paper Fig. 1 setting (scale unreported; defaults N=100, H=10)."""
    return Scenario(
        name="large-scale",
        num_peers=num_peers,
        num_helpers=num_helpers,
        num_stages=num_stages,
    )


def fig5_scenario(num_stages: int = 1500) -> Scenario:
    """Fig. 5 setting: demands exceed the helpers' minimum bandwidth.

    40 peers at 100 kbit/s each (4000 total) against 4 helpers with minimum
    aggregate 2800 kbit/s: the minimum deficit is 1200 kbit/s, and good
    selection should keep realized server load near it.
    """
    return Scenario(
        name="fig5-server-load",
        num_peers=40,
        num_helpers=4,
        demand_per_peer=100.0,
        num_stages=num_stages,
    )


def massive_scale_scenario(
    num_peers: int = 100_000,
    num_helpers: int = 200,
    num_channels: int = 4,
    num_stages: int = 200,
) -> Scenario:
    """Population-scale multi-channel scenario for the vectorized runtime.

    Not a paper figure — the regime the ROADMAP's north star targets
    (10⁵–10⁶ viewers), far beyond what per-object peers can advance.  Build
    it with ``scenario.to_spec().build()`` (vectorized backend); the scalar
    backend at this size is minutes per round.  Demand is set below the per-peer helper share so
    welfare, not the origin server, is the interesting series; crank
    ``num_peers`` further to study the load-skew regime.
    """
    return Scenario(
        name="massive-scale",
        num_peers=num_peers,
        num_helpers=num_helpers,
        num_channels=num_channels,
        demand_per_peer=100.0,
        num_stages=num_stages,
    )


def make_system_config(scenario: Scenario, **overrides) -> "SystemConfig":
    """A :class:`~repro.sim.system.SystemConfig` matching ``scenario``.

    ``overrides`` pass through to the config (churn, popularity, ...).
    """
    from repro.sim.system import SystemConfig

    bitrate = (
        scenario.demand_per_peer
        if scenario.demand_per_peer is not None
        else 350.0
    )
    return SystemConfig(
        num_peers=scenario.num_peers,
        num_helpers=scenario.num_helpers,
        num_channels=scenario.num_channels,
        channel_bitrates=bitrate,
        bandwidth_levels=scenario.bandwidth_levels,
        stay_probability=scenario.stay_probability,
        **overrides,
    )


def spec_for_scenario(
    scenario: Scenario,
    backend: str = "vectorized",
    learner: str = "r2hs",
    capacity_backend: str = "auto",
    seed: int = 0,
    dtype: str = "float64",
    churn: Optional[ChurnSpec] = None,
    channel_popularity: Optional[Tuple[float, ...]] = None,
    metrics: Tuple[str, ...] = (),
) -> ExperimentSpec:
    """Translate a :class:`Scenario` bundle into an :class:`~repro.spec.ExperimentSpec`.

    The scenario's scale, environment and learner hyper-parameters map
    onto the spec sections; ``backend``, ``learner`` and
    ``capacity_backend`` pick the registered implementations.  Peers with
    no explicit demand stream at the historical default 350 kbit/s
    (matching :func:`make_system_config`).
    """
    bitrate = (
        scenario.demand_per_peer
        if scenario.demand_per_peer is not None
        else 350.0
    )
    return ExperimentSpec(
        name=scenario.name,
        backend=backend,
        rounds=scenario.num_stages,
        seed=seed,
        topology=TopologySpec(
            num_peers=scenario.num_peers,
            num_helpers=scenario.num_helpers,
            num_channels=scenario.num_channels,
            channel_bitrates=bitrate,
            channel_popularity=channel_popularity,
        ),
        capacity=CapacitySpec(
            backend=capacity_backend,
            levels=scenario.bandwidth_levels,
            stay_probability=scenario.stay_probability,
        ),
        learner=LearnerSpec(
            name=learner,
            epsilon=scenario.epsilon,
            delta=scenario.delta,
            mu=scenario.mu,
            dtype=dtype,
        ),
        churn=churn if churn is not None else ChurnSpec(),
        metrics=MetricsSpec(metrics=metrics),
    )


def make_learner_population(
    scenario: Scenario, rng: Seedish = None
) -> LearnerPopulation:
    """A vectorized R2HS population with the scenario's parameters."""
    return LearnerPopulation(
        num_peers=scenario.num_peers,
        num_helpers=scenario.num_helpers,
        epsilon=scenario.epsilon,
        mu=scenario.mu,
        delta=scenario.delta,
        u_max=scenario.u_max,
        rng=rng,
    )


def heterogeneous_scenario(num_stages: int = 2000) -> Scenario:
    """Helpers of two classes: strong (fiber) and weak (DSL) uploaders.

    Not a paper figure — an extension scenario exercising the asymmetric
    regime where helper selection actually matters for welfare (with
    symmetric helpers, any non-degenerate rule is near-optimal; see the
    README backend guide).  Four helpers at levels [1400, 1600, 1800] and four at
    [350, 400, 450]; the proportional split is 4:1.
    """
    return Scenario(
        name="heterogeneous-helpers",
        num_peers=40,
        num_helpers=8,
        bandwidth_levels=(350.0, 400.0, 450.0, 1400.0, 1600.0, 1800.0),
        num_stages=num_stages,
    )


def make_heterogeneous_process(
    scenario: Scenario, rng: Seedish = None
) -> MarkovCapacityProcess:
    """Environment for :func:`heterogeneous_scenario`.

    Half the helpers switch over the strong levels, half over the weak
    ones (each a slow birth-death chain).
    """
    from repro.mdp.markov_chain import birth_death_chain
    from repro.util.rng import spawn_many

    levels = list(scenario.bandwidth_levels)
    if len(levels) % 2 != 0:
        raise ValueError("scenario must carry an even number of levels "
                         "(weak half + strong half)")
    half = len(levels) // 2
    weak_levels, strong_levels = levels[:half], levels[half:]
    parent = as_generator(rng)
    children = spawn_many(parent, scenario.num_helpers)
    chains = []
    for j, child in enumerate(children):
        chosen = strong_levels if j < scenario.num_helpers // 2 else weak_levels
        chains.append(
            birth_death_chain(
                chosen, stay_probability=scenario.stay_probability, rng=child
            )
        )
    return MarkovCapacityProcess(chains)


# ----------------------------------------------------------------------
# Load-skew scenario families (registry-native: they produce specs)
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
    :class:`~repro.sim.failures.FailureInjectingProcess` wrapped around
    the paper environment via the registered ``"failures"`` capacity
    transform.  Peers discover outages only through a zero rate (bandit
    feedback), while Poisson churn keeps the population itself moving —
    the churn-heavy adaptation workload the fused multi-channel engine
    is exercised under.
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


# ----------------------------------------------------------------------
# Scenario registry entries: every preset resolvable by name
# ----------------------------------------------------------------------


@register_scenario("small_scale")
def _small_scale_entry(num_stages: int = 2000, **kwargs) -> ExperimentSpec:
    return spec_for_scenario(
        small_scale_scenario(num_stages=num_stages), **kwargs
    )


@register_scenario("large_scale")
def _large_scale_entry(
    num_peers: int = 100,
    num_helpers: int = 10,
    num_stages: int = 3000,
    **kwargs,
) -> ExperimentSpec:
    return spec_for_scenario(
        large_scale_scenario(
            num_peers=num_peers, num_helpers=num_helpers, num_stages=num_stages
        ),
        **kwargs,
    )


@register_scenario("fig5")
def _fig5_entry(num_stages: int = 1500, **kwargs) -> ExperimentSpec:
    return spec_for_scenario(fig5_scenario(num_stages=num_stages), **kwargs)


@register_scenario("massive_scale")
def _massive_scale_entry(**kwargs) -> ExperimentSpec:
    scenario_keys = {"num_peers", "num_helpers", "num_channels", "num_stages"}
    scenario_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in scenario_keys}
    return spec_for_scenario(massive_scale_scenario(**scenario_kwargs), **kwargs)


register_scenario("popularity_skew", popularity_skew_spec)
register_scenario("flash_crowd", flash_crowd_spec)
register_scenario("helper_failures", helper_failures_spec)
register_scenario("popularity_drift", popularity_drift_spec)
