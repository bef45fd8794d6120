"""Workload generators and the paper's canned scenarios.

* :mod:`repro.workloads.popularity` — Zipf-like channel popularity (the
  time-varying popularity motivating multi-channel helper systems).
* :mod:`repro.workloads.scenarios` — spec factories for the concrete
  experiment setups of the paper's Section IV (:func:`small_scale_spec`
  N=10/H=4, :func:`large_scale_spec`, the :func:`fig5_spec` demand
  setting), :func:`massive_scale_spec`, :func:`heterogeneous_spec` and the
  load-skew families; each returns an :class:`~repro.spec.ExperimentSpec`.
* :mod:`repro.workloads.adversarial` — the hostile corpus the prequential
  evaluator (:mod:`repro.eval`) compares learners against: correlated
  helper outages, oscillating capacity, flash-crowd+failure storms, and
  diurnal popularity/capacity mixes.
* :mod:`repro.workloads.geo` — the geo-distributed corpus entries:
  cross-region flash crowds, regional outages and asymmetric access-link
  mixes, driving the :mod:`repro.network` layer through the spec's
  ``network`` section.

Per-peer demand is the bitrate of the peer's channel, set by the spec's
``topology.channel_bitrates``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.popularity": ["zipf_popularity"],
    "repro.workloads.scenarios": [
        "small_scale_spec",
        "large_scale_spec",
        "fig5_spec",
        "heterogeneous_spec",
        "massive_scale_spec",
        "popularity_skew_spec",
        "flash_crowd_spec",
        "make_heterogeneous_process",
    ],
    "repro.workloads.adversarial": [
        "correlated_failures_spec",
        "oscillating_capacity_spec",
        "flash_storm_spec",
        "diurnal_mix_spec",
    ],
    "repro.workloads.geo": [
        "cross_region_flash_crowd_spec",
        "regional_outage_spec",
        "asymmetric_uplinks_spec",
    ],
})
