"""Experiment harness: figure reproduction, sweeps and their reporting.

* :mod:`repro.analysis.reporting` — ASCII tables and series.  Each
  benchmark regenerates one of the paper's figures as text — a table of
  the plotted series (downsampled) plus the headline comparison the figure
  makes.  No plotting dependencies; everything renders in a terminal or
  CI log.
* :mod:`repro.analysis.experiments` — one function per paper figure.
* :mod:`repro.analysis.sweeps` — sweep results and the environment-speed
  sweep.
* :mod:`repro.analysis.parallel` / :mod:`repro.analysis.supervision` —
  deterministic sweep execution, inline or one supervised worker process
  per cell.
* :mod:`repro.analysis.chaos` — fault injection for the supervised path.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.reporting": [
        "render_table",
        "render_series_table",
        "sparkline",
        "downsample",
        "format_float",
    ],
    "repro.analysis.sweeps": [
        "SweepResult", "sweep_environment_speed",
    ],
    "repro.analysis.parallel": ["ParallelRunner", "CellFunction"],
})
