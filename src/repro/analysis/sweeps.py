"""Sweep results, and the environment-speed sweep of the bare game.

:class:`SweepResult` carries every sweep's cells home with its rendering
helpers; :meth:`repro.spec.ExperimentSpec.sweep` (and so ``repro run``
with a sweep section) builds one.  Learner parameters are swept as a
spec grid over ``learner.*`` paths.  :func:`sweep_environment_speed`
sweeps the bandwidth chain's stay-probability for the bare repeated game
(``benchmarks/bench_ablation_environment.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.reporting import render_table
from repro.util.rng import Seedish, as_generator, derive_seed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.game.repeated_game import Trajectory

# SweepCell and SweepResult carry every sweep's results home, resumed
# ones included; the learner and capacity code below loads only when an
# environment sweep runs.
MetricFunction = Callable[["Trajectory"], float]


def default_metrics(u_max: float = 900.0) -> Dict[str, MetricFunction]:
    """The standard sweep metrics: welfare, CE regret, load balance."""
    from repro.core.equilibrium import empirical_ce_regret
    from repro.metrics.distributions import load_balance_report

    return {
        "tail_welfare": lambda t: float(t.tail(0.25).welfare.mean()),
        "ce_regret": lambda t: float(empirical_ce_regret(t, u_max=u_max)),
        "load_jain": lambda t: float(load_balance_report(t).jain),
    }


@dataclass(frozen=True)
class SweepCell:
    """One grid point and its metric values."""

    parameters: Mapping[str, object]
    metrics: Mapping[str, float]


@dataclass
class SweepResult:
    """All cells of a sweep plus rendering helpers.

    Under fault-tolerant execution with ``on_failure="record"``
    (:class:`~repro.spec.ExecutionSpec`), cells that failed beyond
    recovery appear as ``None`` holes in :attr:`cells` at their grid
    position, and their structured
    :class:`~repro.analysis.supervision.SweepFailure` records land in
    :attr:`failures`.  The helpers below treat holes explicitly:
    :meth:`to_table` renders ``FAILED`` rows, :meth:`column` yields NaN,
    :meth:`best` and :meth:`merged_telemetry` skip them.
    """

    cells: List[Optional[SweepCell]] = field(default_factory=list)
    failures: List[object] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell completed (no failure holes)."""
        return not self.failures and all(c is not None for c in self.cells)

    def completed_cells(self) -> List[SweepCell]:
        """The cells that produced results, grid order preserved."""
        return [cell for cell in self.cells if cell is not None]

    def to_table(self) -> str:
        """Aligned text table: one row per cell.

        Only scalar-valued metrics become columns; structured payloads
        riding in the metrics dict (array metrics, the per-worker
        ``telemetry`` snapshot) are skipped here and read through
        :meth:`column` / :meth:`merged_telemetry` instead.  Failed cells
        render as a row of ``FAILED`` markers so holes are visible in
        place, not silently dropped.
        """
        completed = self.completed_cells()
        failed_params = {
            failure.cell_index: dict(getattr(failure, "params", None) or {})
            for failure in self.failures
            if getattr(failure, "cell_index", None) is not None
        }
        if not completed and not failed_params:
            raise ValueError("sweep produced no cells")
        # Parameter columns are the union over completed cells and
        # failure records (first-seen order), so a failed cell's params
        # render inline — including when every cell failed and there is
        # no completed cell to take the columns from.
        param_names: List[str] = []
        for params in [c.parameters for c in completed] + list(
            failed_params.values()
        ):
            for name in params:
                if name not in param_names:
                    param_names.append(name)
        metric_names = (
            [
                name
                for name, value in completed[0].metrics.items()
                if isinstance(value, (int, float, np.number))
            ]
            if completed
            else []
        )
        # With no completed cell there are no metric columns; a status
        # column keeps the FAILED markers visible.
        value_names = metric_names if completed else ["status"]
        rows = []
        for index, cell in enumerate(self.cells):
            if cell is None:
                params = failed_params.get(index, {})
                rows.append(
                    [params.get(p, "?") for p in param_names]
                    + ["FAILED" for _ in value_names]
                )
            else:
                rows.append(
                    [cell.parameters.get(p, "") for p in param_names]
                    + [float(cell.metrics[m]) for m in metric_names]
                )
        return render_table(param_names + value_names, rows)

    def merged_telemetry(self) -> Optional[Dict]:
        """The fleet-wide telemetry snapshot across all cells.

        Each worker's final snapshot rides back in its cell's metrics
        under ``"telemetry"`` (specs with telemetry enabled); this merges
        them — counters and phase totals sum, gauges take the max,
        histograms merge bucket-wise.  ``None`` when no cell collected
        telemetry.
        """
        from repro.telemetry import merge_snapshots

        return merge_snapshots(
            cell.metrics.get("telemetry")
            for cell in self.cells
            if cell is not None
        )

    def best(self, metric: str, maximize: bool = True) -> SweepCell:
        """The cell optimizing ``metric`` (failure holes excluded)."""
        completed = self.completed_cells()
        if not completed:
            raise ValueError("sweep produced no cells")
        key = lambda cell: cell.metrics[metric]  # noqa: E731
        return max(completed, key=key) if maximize else min(completed, key=key)

    def column(self, name: str) -> np.ndarray:
        """Metric values across cells, in grid order (NaN for failed cells)."""
        return np.array(
            [
                float("nan") if cell is None else cell.metrics[name]
                for cell in self.cells
            ]
        )


def sweep_environment_speed(
    stay_probabilities: Sequence[float],
    num_peers: int,
    num_helpers: int,
    num_stages: int,
    epsilon: float = 0.05,
    u_max: float = 900.0,
    metrics: Mapping[str, MetricFunction] | None = None,
    rng: Seedish = None,
) -> SweepResult:
    """Sweep the bandwidth chain's stay-probability (environment speed).

    Each cell gets its own realization (the parameter *is* the
    environment); learner parameters stay fixed.  Probes the paper's
    "slowly changing random process" assumption: tracking should hold up
    until the chain mixes faster than the learner's memory.
    """
    from repro.core.population import LearnerPopulation
    from repro.sim.bandwidth import paper_bandwidth_process

    if not stay_probabilities:
        raise ValueError("need at least one stay probability")
    parent = as_generator(rng)
    metric_fns = dict(metrics) if metrics is not None else default_metrics(u_max)
    result = SweepResult()
    for stay in stay_probabilities:
        process = paper_bandwidth_process(
            num_helpers, stay_probability=stay, rng=derive_seed(parent)
        )
        population = LearnerPopulation(
            num_peers, num_helpers, epsilon=epsilon, u_max=u_max,
            rng=derive_seed(parent),
        )
        trajectory = population.run(process, num_stages)
        result.cells.append(
            SweepCell(
                parameters={"stay_probability": stay},
                metrics={
                    name: fn(trajectory) for name, fn in metric_fns.items()
                },
            )
        )
    return result
