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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.eval.harness": [
        "EvalCell",
        "EvalResult",
        "EvalSpec",
        "Evaluator",
        "evaluate",
        "run_eval_cell",
    ],
    "repro.eval.metrics": [
        "SCALAR_METRICS", "WINDOW_METRICS", "prequential_metrics",
    ],
    "repro.eval.windows": [
        "window_lengths", "window_ratios", "window_starts", "window_sums",
    ],
})
