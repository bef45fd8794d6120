"""Array-backed streaming runtime for population-scale experiments.

The scalar substrate in :mod:`repro.sim` advances one Python object per
peer per round — fine for the paper's 10–100-peer figures, hopeless for
10⁵–10⁶-peer scenarios.  This package re-implements the *same system* (same
:class:`~repro.spec.ExperimentSpec`, same
:class:`~repro.sim.trace.SystemTrace` schema, same server/churn semantics)
on dense arrays:

* :mod:`repro.runtime.peer_store` — struct-of-arrays peer table with an
  O(1) free-list for churn and never-reused uids as churn handles; its
  columns change only through ``allocate``/``release``, which keep the
  channel index the round groups by;
* :mod:`repro.runtime.learner_bank` — per-channel vectorized strategy
  blocks (the regret recursion via
  :class:`repro.core.population.LearnerPopulation`, plus uniform and
  sticky baselines) and :func:`bank_factory`;
* :mod:`repro.runtime.grouped_bank` — the one bank contract: a
  :class:`~repro.runtime.grouped_bank.GroupedLearnerBank` owns every
  channel's rows and advances them with a single ``act_all`` /
  ``observe_all`` per round — fused (one kernel pass per distinct
  channel width) for the regret families, bit-identical to per-channel
  regret banks behind the same API;
* :mod:`repro.runtime.system` — :class:`VectorizedStreamingSystem`, whose
  learning round is a handful of numpy ops (one learner draw,
  ``np.bincount`` loads, masked deficit accounting, one learner update).
  Its construction, churn/switch/drift wiring and round loop are the
  scalar system's: both inherit :class:`repro.sim.system.SystemSkeleton`.

Pick a backend per experiment: the scalar system for per-peer
introspection and plug-in scalar learners, the vectorized runtime for
scale (see README for the decision guide and measured speedups).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.runtime.peer_store": ["PeerStore"],
    "repro.runtime.learner_bank": [
        "LearnerBank",
        "BankFactory",
        "RegretBank",
        "TopKRegretBank",
        "UniformBank",
        "StickyBank",
        "bank_factory",
    ],
    "repro.runtime.grouped_bank": [
        "GroupedLearnerBank",
        "GroupedRegretBank",
        "GroupedChannelView",
        "PerChannelGroupedBank",
        "build_per_channel_banks",
    ],
    "repro.runtime.system": ["VectorizedStreamingSystem"],
})
