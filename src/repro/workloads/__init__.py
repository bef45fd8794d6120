"""Workload generators and the paper's canned scenarios.

* :mod:`repro.workloads.popularity` — Zipf-like channel popularity (the
  time-varying popularity motivating multi-channel helper systems).
* :mod:`repro.workloads.demand` — per-peer streaming-demand profiles.
* :mod:`repro.workloads.scenarios` — the concrete experiment setups of the
  paper's Section IV (small-scale N=10/H=4, large-scale, Fig. 5 demand
  setting), each bundling population, environment and learner parameters.
* :mod:`repro.workloads.adversarial` — the hostile corpus the prequential
  evaluator (:mod:`repro.eval`) compares learners against: correlated
  helper outages, oscillating capacity, flash-crowd+failure storms, and
  diurnal popularity/capacity mixes.
* :mod:`repro.workloads.geo` — the geo-distributed corpus entries:
  cross-region flash crowds, regional outages and asymmetric access-link
  mixes, driving the :mod:`repro.network` layer through the spec's
  ``network`` section.
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
from repro.workloads.demand import constant_demand, heterogeneous_demand
from repro.workloads.popularity import zipf_popularity
from repro.workloads.scenarios import (
    Scenario,
    fig5_scenario,
    flash_crowd_spec,
    heterogeneous_scenario,
    large_scale_scenario,
    make_heterogeneous_process,
    make_learner_population,
    make_system_config,
    massive_scale_scenario,
    popularity_skew_spec,
    small_scale_scenario,
    spec_for_scenario,
)

__all__ = [
    "zipf_popularity",
    "constant_demand",
    "heterogeneous_demand",
    "Scenario",
    "small_scale_scenario",
    "large_scale_scenario",
    "fig5_scenario",
    "heterogeneous_scenario",
    "massive_scale_scenario",
    "spec_for_scenario",
    "popularity_skew_spec",
    "flash_crowd_spec",
    "make_heterogeneous_process",
    "make_learner_population",
    "make_system_config",
    "correlated_failures_spec",
    "oscillating_capacity_spec",
    "flash_storm_spec",
    "diurnal_mix_spec",
    "cross_region_flash_crowd_spec",
    "regional_outage_spec",
    "asymmetric_uplinks_spec",
]
