"""Parallel experiment executor.

Sweeps and replication studies are embarrassingly parallel: every cell is
an independent simulation distinguished only by its parameters and seed.
:class:`ParallelRunner` keeps results **deterministic**: per-cell seeds
are drawn from the parent generator with
:func:`~repro.util.rng.derive_seed` *in submission order*, before any work
is dispatched, so the same parent seed yields the same per-cell seeds — and
therefore the same results — whether the sweep runs on 1 worker or 64.

With one worker and the default :class:`~repro.spec.ExecutionSpec`, cells
run inline in this process (the mode to use under a debugger).  Every
other sweep — more than one worker, or an execution policy that asks for
retries, timeouts, heartbeats or recorded failures — runs under
:class:`~repro.analysis.supervision.Supervisor`: one process per cell,
each result pickled home through that worker's own pipe.

Cell functions must be picklable (module-level functions, or
:func:`functools.partial` over one); the spec sweep
(:meth:`repro.spec.ExperimentSpec.sweep`, behind the CLI's ``repro run``)
routes through this runner.
"""

from __future__ import annotations

import os
import traceback
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.sweeps import SweepCell, SweepResult
from repro.util.logconfig import get_logger
from repro.util.rng import Seedish, as_generator, derive_seed

logger = get_logger("analysis")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.spec.model import SweepSpec

#: A cell evaluator: ``(parameters, seed) -> {metric_name: value}``.
CellFunction = Callable[[Mapping[str, object], int], Mapping[str, float]]


def _invoke(cell_fn, params, seed, index, spec_digest):
    """Run one cell in this process: its metrics, or a ``SweepFailure``.

    A raising cell comes back as data so its siblings still run — the
    failure contract of every worker count.
    """
    try:
        return dict(cell_fn(params, seed))
    except Exception:
        from repro.analysis.supervision import SweepFailure

        return SweepFailure(
            cell_index=index,
            params=dict(params),
            seed=seed,
            spec_digest=spec_digest,
            traceback=traceback.format_exc(),
        )


class ParallelRunner:
    """Deterministic fan-out of experiment cells over worker processes.

    ``workers`` is the process count; ``None`` uses the machine's CPU
    count.  ``1`` runs cells inline, in this process, unless the sweep's
    execution policy asks for supervision; more than one always runs
    every cell in its own supervised worker process.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)

    @property
    def workers(self) -> int:
        """Configured worker-process count."""
        return self._workers

    def map_cells(
        self,
        cell_fn: CellFunction,
        parameter_sets: Sequence[Mapping[str, object]],
        rng: Seedish = None,
        *,
        execution=None,
        store=None,
        spec_digest: Optional[str] = None,
        failures_out: Optional[list] = None,
    ) -> List[Optional[SweepCell]]:
        """Evaluate ``cell_fn`` on every parameter set; order preserved.

        Seeds are derived from ``rng`` in submission order, so results are
        independent of the worker count — and of retries: a cell's seed
        is fixed before any dispatch, so recomputing it (after a worker
        crash, or on resume from a store) is bit-identical.

        With more than one worker, or an ``execution`` policy (an
        :class:`~repro.spec.ExecutionSpec`) that enables supervision,
        cells run under :class:`~repro.analysis.supervision.Supervisor` —
        one process per cell, retries with backoff.  ``store`` (a
        :class:`~repro.store.ResultsStore`) is consulted *before*
        dispatch: cached cells never run, and every computed cell is
        committed as soon as it completes.  Under ``on_failure="record"``
        a cell that fails beyond recovery yields ``None`` in the returned
        list and its :class:`~repro.analysis.supervision.SweepFailure` is
        appended to ``failures_out`` (when given); under the default
        ``"raise"`` a :class:`~repro.analysis.supervision.SweepError` is
        raised after every other cell has finished.
        """
        parent = as_generator(rng)
        # Seeds are drawn for every cell up front, cache hits included —
        # consulting the store must not shift the RNG stream of the
        # cells that still need computing.
        seeds = [derive_seed(parent) for _ in parameter_sets]
        if execution is None:
            from repro.spec.model import ExecutionSpec

            execution = ExecutionSpec()
        payloads = [
            (cell_fn, dict(params), seeds[i], i)
            for i, params in enumerate(parameter_sets)
        ]
        results: Dict[int, Mapping[str, object]] = {}
        if store is not None:
            from repro.store import cell_digest
            from repro.telemetry import get_telemetry

            hits = get_telemetry().counter("sweep.cache_hits")
            for _, params, seed, index in payloads:
                cached = store.get(spec_digest, cell_digest(params, seed))
                if cached is not None:
                    results[index] = cached
                    hits.inc()
            if results:
                logger.info(
                    "results store: %d/%d cell(s) cached for spec %s",
                    len(results), len(payloads), spec_digest,
                )
        to_run = [p for p in payloads if p[3] not in results]
        failures: Dict[int, object] = {}
        if to_run and (self._workers > 1 or execution.supervised):
            from repro.analysis.supervision import Supervisor

            supervisor = Supervisor(
                workers=min(self._workers, len(to_run)),
                execution=execution,
                store=store,
                spec_digest=spec_digest,
            )
            run_results, failures = supervisor.run(to_run)
            results.update(run_results)
        elif to_run:
            self._run_inline(to_run, results, failures, store, spec_digest)
        cells: List[Optional[SweepCell]] = []
        ordered_failures = []
        for _, params, _, index in payloads:
            if index in results:
                cells.append(
                    SweepCell(parameters=dict(params), metrics=results[index])
                )
            else:
                cells.append(None)
                ordered_failures.append(failures[index])
        if ordered_failures:
            if execution.on_failure == "raise":
                from repro.analysis.supervision import SweepError

                raise SweepError(ordered_failures[0])
            if failures_out is not None:
                failures_out.extend(ordered_failures)
        return cells

    @staticmethod
    def _run_inline(payloads, results, failures, store, spec_digest) -> None:
        """Run payloads in this process, in order, into ``results`` or
        ``failures``; with a ``store``, commit each cell as it completes."""
        if store is not None:
            from repro.store import cell_digest
            from repro.telemetry import get_telemetry

            commits = get_telemetry().counter("sweep.store_commits")
        for cell_fn, params, seed, index in payloads:
            outcome = _invoke(cell_fn, params, seed, index, spec_digest)
            if not isinstance(outcome, dict):
                logger.error("%s", outcome.describe())
                failures[index] = outcome
                continue
            results[index] = outcome
            if store is None:
                continue
            try:
                if store.put(
                    spec_digest, cell_digest(params, seed), outcome,
                    params=params, seed=seed,
                ):
                    commits.inc()
            except Exception as exc:
                logger.warning(
                    "store commit failed for cell %d: %s", index, exc
                )

    def run_sweep(
        self,
        sweep: "SweepSpec",
        cell_fn: CellFunction,
        rng: Seedish = None,
        *,
        execution=None,
        store=None,
        spec_digest: Optional[str] = None,
    ) -> SweepResult:
        """Evaluate a :class:`~repro.spec.model.SweepSpec`'s cells.

        Expands the sweep's grid × replications in declaration order and
        maps ``cell_fn`` over the override sets; the spec layer's
        ``ExperimentSpec.sweep`` routes through here.  ``execution``/``store``/``spec_digest``
        select fault-tolerant execution (see :meth:`map_cells`); cells
        that fail beyond recovery under ``on_failure="record"`` surface
        on :attr:`SweepResult.failures` with ``None`` holes in the cell
        list.
        """
        failures: list = []
        cells = self.map_cells(
            cell_fn,
            sweep.parameter_sets(),
            rng=rng,
            execution=execution,
            store=store,
            spec_digest=spec_digest,
            failures_out=failures,
        )
        return SweepResult(cells=cells, failures=failures)
