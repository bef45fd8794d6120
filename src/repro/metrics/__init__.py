"""Evaluation metrics for the paper's figures.

* :mod:`repro.metrics.fairness` — Jain's index, max/min ratio, coefficient
  of variation (Figs. 3 and 4).
* :mod:`repro.metrics.convergence` — the time-averaged regret series,
  smoothing, convergence detection (Fig. 1).
* :mod:`repro.metrics.server_load` — server workload vs. the minimum
  bandwidth deficit of helpers (Fig. 5).
* :mod:`repro.metrics.distributions` — helper-load distribution statistics
  (Fig. 3).

Fig. 2 needs no module here: it plots ``Trajectory.welfare`` against the
optimum from :mod:`repro.mdp`.
"""

from repro.metrics.convergence import (
    convergence_stage,
    moving_average,
    time_averaged_regret_series,
)
from repro.metrics.distributions import (
    load_balance_report,
    load_distance_to_proportional,
    mean_loads,
)
from repro.metrics.fairness import coefficient_of_variation, jain_index, max_min_ratio
from repro.metrics.server_load import server_load_report

__all__ = [
    "jain_index",
    "max_min_ratio",
    "coefficient_of_variation",
    "time_averaged_regret_series",
    "moving_average",
    "convergence_stage",
    "mean_loads",
    "load_balance_report",
    "load_distance_to_proportional",
    "server_load_report",
]
