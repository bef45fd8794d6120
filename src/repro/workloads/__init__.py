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

from repro.workloads.adversarial import (
    correlated_failures_spec,
    diurnal_mix_spec,
    flash_storm_spec,
    oscillating_capacity_spec,
)
from repro.workloads.geo import (
    asymmetric_uplinks_spec,
    cross_region_flash_crowd_spec,
    regional_outage_spec,
)
from repro.workloads.popularity import zipf_popularity
from repro.workloads.scenarios import (
    fig5_spec,
    flash_crowd_spec,
    heterogeneous_spec,
    large_scale_spec,
    make_heterogeneous_process,
    massive_scale_spec,
    popularity_skew_spec,
    small_scale_spec,
)

__all__ = [
    "zipf_popularity",
    "small_scale_spec",
    "large_scale_spec",
    "fig5_spec",
    "heterogeneous_spec",
    "massive_scale_spec",
    "popularity_skew_spec",
    "flash_crowd_spec",
    "make_heterogeneous_process",
    "correlated_failures_spec",
    "oscillating_capacity_spec",
    "flash_storm_spec",
    "diurnal_mix_spec",
    "cross_region_flash_crowd_spec",
    "regional_outage_spec",
    "asymmetric_uplinks_spec",
]
