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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.metrics.fairness": [
        "jain_index", "max_min_ratio", "coefficient_of_variation",
    ],
    "repro.metrics.convergence": [
        "time_averaged_regret_series", "moving_average", "convergence_stage",
    ],
    "repro.metrics.distributions": [
        "mean_loads", "load_balance_report", "load_distance_to_proportional",
    ],
    "repro.metrics.server_load": ["server_load_report"],
})
