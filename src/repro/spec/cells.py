"""Picklable sweep-cell functions for spec-driven runs.

:class:`~repro.analysis.parallel.ParallelRunner` ships cell functions to
worker processes, so they must be module-level (or
:func:`functools.partial` over one).  :func:`run_spec_cell` is the single
cell every spec-driven sweep and replication study uses: rebuild the spec
from its dict form, apply the cell's overrides, run, and return the
metrics (plus wall-clock timing).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping


def run_spec_cell(
    spec_dict: Mapping[str, Any], params: Mapping[str, Any], seed: int
) -> Dict[str, Any]:
    """Run one cell of a spec sweep; picklable for worker fan-out.

    ``params`` holds dotted-path overrides from a
    :class:`~repro.spec.model.SweepSpec` grid (the bookkeeping
    ``replication`` key is skipped — replications differ only by seed).
    """
    from repro.spec.model import ExperimentSpec

    spec = ExperimentSpec.from_dict(spec_dict)
    overrides = {k: v for k, v in params.items() if k != "replication"}
    if overrides:
        spec = spec.with_overrides(overrides)
    start = time.perf_counter()
    result = spec.run(seed=seed)
    elapsed = time.perf_counter() - start
    metrics = dict(result.metrics)
    metrics["elapsed_s"] = elapsed
    metrics["rounds_per_s"] = spec.rounds / elapsed
    if result.telemetry is not None:
        # The worker's snapshot rides back through the runner's ordinary
        # result transport; SweepResult.merged_telemetry() aggregates the
        # fleet (counters sum, gauges max, histograms bucket-wise).
        metrics["telemetry"] = result.telemetry
    return metrics
