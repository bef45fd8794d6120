"""Reporting utilities: ASCII tables and series for the benchmark harness.

Each benchmark regenerates one of the paper's figures as text — a table of
the plotted series (downsampled) plus the headline comparison the figure
makes.  No plotting dependencies; everything renders in a terminal or CI
log.
"""

from repro.analysis.io import load_trajectory, save_trajectory
from repro.analysis.parallel import (
    CellFunction,
    ParallelRunner,
    SharedArrayHandle,
    share_array,
)
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
    "save_trajectory",
    "load_trajectory",
    "SweepResult",
    "sweep_learner_parameters",
    "sweep_environment_speed",
    "ParallelRunner",
    "CellFunction",
    "SharedArrayHandle",
    "share_array",
]

# Note: repro.analysis.experiments is intentionally not imported here — it
# imports the top-level `repro` package for convenience, so pulling it in
# eagerly would create an import cycle.  Import it explicitly:
#   from repro.analysis.experiments import ALL_FIGURES

