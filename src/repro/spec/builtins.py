"""Built-in registry entries: the components the core packages ship.

Imported for its side effects by :mod:`repro.spec` before the spec model,
so every :class:`~repro.spec.model.ExperimentSpec` can resolve the stock
names.  Scenario presets register themselves from
:mod:`repro.workloads.scenarios` (the workloads layer depends on the spec
layer, never the reverse).
"""

from __future__ import annotations

import numpy as np

from repro.core.r2hs import R2HSLearner
from repro.core.rths import RTHSLearner
from repro.game.baselines import StickyLearner, UniformRandomLearner
from repro.metrics.fairness import jain_index
from repro.runtime.learner_bank import bank_factory as _runtime_bank_factory
from repro.sim.bandwidth import paper_bandwidth_process
from repro.spec.registry import (
    register_capacity_backend,
    register_capacity_transform,
    register_learner,
    register_metric,
)

# ----------------------------------------------------------------------
# Capacity backends
# ----------------------------------------------------------------------


def _paper_backend(backend: str):
    def build(num_helpers, *, levels, stay_probability, rng):
        return paper_bandwidth_process(
            num_helpers,
            levels=levels,
            stay_probability=stay_probability,
            rng=rng,
            backend=backend,
        )

    return build


register_capacity_backend("scalar", _paper_backend("scalar"))
register_capacity_backend("vectorized", _paper_backend("vectorized"))


# ----------------------------------------------------------------------
# Capacity transforms (the composable pipeline stages)
# ----------------------------------------------------------------------


def _failures_transform(
    process,
    *,
    rng,
    failure_rate: float = 0.02,
    mean_outage_rounds: float = 20.0,
):
    """Random independent helper outages (capacity reads 0 until recovery)."""
    from repro.sim.failures import FailureInjectingProcess

    return FailureInjectingProcess(
        process,
        failure_rate,
        mean_outage_rounds=mean_outage_rounds,
        rng=rng,
    )


register_capacity_transform(
    "failures",
    _failures_transform,
    description=(
        "independent per-helper crash/recovery outages "
        "(geometric outage length, bandit-observed zero rate)"
    ),
)


def _correlated_failures_transform(
    process,
    *,
    rng,
    num_groups: int = 4,
    group_failure_rate: float = 0.02,
    mean_outage_rounds: float = 20.0,
):
    """Whole contiguous failure domains going dark as a unit."""
    from repro.sim.failures import CorrelatedFailureProcess

    return CorrelatedFailureProcess(
        process,
        num_groups=num_groups,
        group_failure_rate=group_failure_rate,
        mean_outage_rounds=mean_outage_rounds,
        rng=rng,
    )


register_capacity_transform(
    "correlated_failures",
    _correlated_failures_transform,
    description=(
        "contiguous helper domains (racks/regions) failing and "
        "recovering as a unit"
    ),
)


def _oscillating_transform(
    process,
    *,
    rng,
    low_fraction: float = 0.25,
    period: int = 20,
    num_groups: int = 2,
):
    """Deterministic rotating degradation square wave over helper cohorts."""
    from repro.sim.adversarial import OscillatingCapacityProcess

    # The wave is a pure function of the stage counter; the pipeline's
    # child stream is deliberately unused.
    return OscillatingCapacityProcess(
        process,
        low_fraction=low_fraction,
        period=period,
        num_groups=num_groups,
    )


register_capacity_transform(
    "oscillating",
    _oscillating_transform,
    description=(
        "adversarial square wave throttling the currently-attractive "
        "helper cohort each period (deterministic)"
    ),
)


def _link_effects_transform(
    process,
    *,
    rng,
    latency_ms=0.0,
    jitter_ms=0.0,
    loss_rate=0.0,
    capacity_scale=1.0,
    rtt_reference_ms: float = 50.0,
):
    """Per-link latency/jitter/loss folding into observed capacity.

    Options accept scalars or per-helper lists; for region matrices and
    helper-class mixes use the spec's ``network`` section, which
    compiles to this same wrapper.
    """
    from repro.network.links import LinkEffectProcess

    return LinkEffectProcess(
        process,
        latency_ms=latency_ms,
        jitter_ms=jitter_ms,
        loss_rate=loss_rate,
        capacity_scale=capacity_scale,
        rtt_reference_ms=rtt_reference_ms,
        rng=rng,
    )


register_capacity_transform(
    "link_effects",
    _link_effects_transform,
    description=(
        "latency/jitter/loss link model scaling capacity to observed "
        "goodput (scalar or per-helper parameters)"
    ),
)


def _clamp_transform(
    process,
    *,
    rng,
    min_capacity: float = 0.0,
    max_capacity=None,
):
    """Hard per-helper capacity floor/ceiling (an access-link cap)."""
    from repro.network.links import ClampedCapacityProcess

    return ClampedCapacityProcess(
        process, min_capacity=min_capacity, max_capacity=max_capacity
    )


register_capacity_transform(
    "clamp",
    _clamp_transform,
    description=(
        "clip capacities into [min_capacity, max_capacity] "
        "(deterministic; does not commute with scaling transforms)"
    ),
)


# ----------------------------------------------------------------------
# Learner families (each drives both system backends)
# ----------------------------------------------------------------------


def _regret_scalar(cls):
    def build(epsilon, delta, mu, u_max):
        return lambda h, rng: cls(
            h, rng=rng, epsilon=epsilon, delta=delta, mu=mu, u_max=u_max
        )

    return build


def _regret_bank(kind):
    def build(epsilon, delta, mu, u_max, dtype, bank="dense", topk=32):
        return _runtime_bank_factory(
            kind, epsilon=epsilon, delta=delta, mu=mu, u_max=u_max,
            dtype=dtype, bank=bank, topk=topk,
        )

    return build


def _uniform_scalar(epsilon, delta, mu, u_max):
    return lambda h, rng: UniformRandomLearner(h, rng=rng)


def _uniform_bank(epsilon, delta, mu, u_max, dtype):
    return _runtime_bank_factory("uniform")


def _sticky_scalar(epsilon, delta, mu, u_max):
    return lambda h, rng: StickyLearner(h, rng=rng)


def _sticky_bank(epsilon, delta, mu, u_max, dtype):
    return _runtime_bank_factory("sticky")


register_learner(
    "rths", scalar=_regret_scalar(RTHSLearner), bank=_regret_bank("rths"),
    min_actions=2, sparse=True,
    description=(
        "Regret Tracking Helper Selection (the paper's Alg. 1): "
        "decaying-memory regret matching, tracks a changing environment"
    ),
)
register_learner(
    "r2hs", scalar=_regret_scalar(R2HSLearner), bank=_regret_bank("r2hs"),
    min_actions=2, sparse=True,
    description=(
        "Regret-based Reinforcement Helper Selection (Alg. 2): "
        "time-averaged regrets, converges to the correlated-equilibrium set"
    ),
)
# The baselines keep no regret state; their per-round cost is the
# per-channel RNG call itself, so there is nothing to fuse — their bank
# loops per-channel banks behind the one bank contract.
register_learner(
    "uniform", scalar=_uniform_scalar, bank=_uniform_bank,
    description="baseline: picks a helper uniformly at random every round",
)
register_learner(
    "sticky", scalar=_sticky_scalar, bank=_sticky_bank,
    description=(
        "baseline: picks a helper once and never switches (fixed overlay)"
    ),
)


# ----------------------------------------------------------------------
# Trace metrics (headline scalars + opt-in per-round series)
# ----------------------------------------------------------------------

register_metric("rounds", lambda trace: float(trace.num_rounds))
register_metric("mean_welfare", lambda trace: float(trace.welfare.mean()))
register_metric("final_welfare", lambda trace: float(trace.welfare[-1]))
register_metric(
    "tail_welfare",
    lambda trace: float(trace.welfare[-max(1, trace.num_rounds // 4):].mean()),
)
register_metric(
    "mean_server_load", lambda trace: float(trace.server_load.mean())
)
register_metric(
    "mean_min_deficit", lambda trace: float(trace.min_deficit.mean())
)
register_metric(
    "mean_online_peers", lambda trace: float(trace.online_peers.mean())
)
register_metric(
    "load_jain",
    lambda trace: float(jain_index(trace.loads.mean(axis=0).astype(float))),
)
# Per-round series: array-valued metrics.  A sweep's workers pickle them
# home through their pipes with the scalars; a series costs about its
# size in bytes per cell.
register_metric(
    "welfare_series", lambda trace: np.asarray(trace.welfare, dtype=float)
)
register_metric(
    "server_load_series",
    lambda trace: np.asarray(trace.server_load, dtype=float),
)
register_metric(
    "online_peers_series",
    lambda trace: np.asarray(trace.online_peers, dtype=float),
)
