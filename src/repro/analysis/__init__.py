"""Experiment harness: figure reproduction, sweeps and their reporting.

* :mod:`repro.analysis.reporting` — ASCII tables and series.  Each
  benchmark regenerates one of the paper's figures as text — a table of
  the plotted series (downsampled) plus the headline comparison the figure
  makes.  No plotting dependencies; everything renders in a terminal or
  CI log.
* :mod:`repro.analysis.experiments` — one function per paper figure.
* :mod:`repro.analysis.sweeps` — paired-environment parameter sweeps.
* :mod:`repro.analysis.parallel` / :mod:`repro.analysis.supervision` —
  deterministic sweep execution, inline or one supervised worker process
  per cell.
* :mod:`repro.analysis.chaos` — fault injection for the supervised path.
"""

from repro.analysis.parallel import CellFunction, ParallelRunner
from repro.analysis.sweeps import (
    SweepResult,
    sweep_environment_speed,
    sweep_learner_parameters,
)
from repro.analysis.reporting import (
    downsample,
    format_float,
    render_series_table,
    render_table,
    sparkline,
)

__all__ = [
    "render_table",
    "render_series_table",
    "sparkline",
    "downsample",
    "format_float",
    "SweepResult",
    "sweep_learner_parameters",
    "sweep_environment_speed",
    "ParallelRunner",
    "CellFunction",
]

# Note: repro.analysis.experiments is intentionally not imported here — it
# imports the top-level `repro` package for convenience, so pulling it in
# eagerly would create an import cycle.  Import it explicitly:
#   from repro.analysis.experiments import ALL_FIGURES

