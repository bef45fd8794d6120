"""repro.eval — prequential evaluation of learners over scenario streams.

The subsystem that turns "does RTHS beat sticky under X?" into one
command: declare a learner × scenario matrix as an :class:`EvalSpec`,
run it with :class:`Evaluator` (or ``repro eval`` from the CLI), and
read the windowed test-then-train metrics off the :class:`EvalResult`
table.  Built entirely on the spec layer's registries and the sweep
machinery, so evaluation cells inherit deterministic seeding,
supervision/retry, and store-backed resume for free.

Layout:

* :mod:`repro.eval.windows` — windowed reductions (last window partial).
* :mod:`repro.eval.metrics` — :func:`prequential_metrics`: one trace →
  cumulative + per-window reward / regret / stall-rate / switch-rate.
* :mod:`repro.eval.harness` — :class:`EvalSpec` / :class:`Evaluator` /
  :class:`EvalResult` and the picklable :func:`run_eval_cell`.

The adversarial scenario corpus the evaluator is pointed at by default
lives in :mod:`repro.workloads.adversarial` (registered scenario names:
``correlated_failures``, ``oscillating_capacity``, ``flash_storm``,
``diurnal_mix``).
"""

from repro.eval.harness import (
    EvalCell,
    EvalResult,
    EvalSpec,
    Evaluator,
    evaluate,
    run_eval_cell,
)
from repro.eval.metrics import (
    SCALAR_METRICS,
    WINDOW_METRICS,
    prequential_metrics,
)
from repro.eval.windows import (
    window_lengths,
    window_ratios,
    window_starts,
    window_sums,
)

__all__ = [
    "EvalCell",
    "EvalResult",
    "EvalSpec",
    "Evaluator",
    "evaluate",
    "run_eval_cell",
    "SCALAR_METRICS",
    "WINDOW_METRICS",
    "prequential_metrics",
    "window_lengths",
    "window_ratios",
    "window_starts",
    "window_sums",
]
