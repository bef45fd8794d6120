"""The prequential evaluation harness: learners × scenarios, one command.

:class:`EvalSpec` declares a comparison matrix — which registered
scenarios, which registered learners, how many rounds, which window size
— and :class:`Evaluator` runs every cell through the existing sweep
machinery: seeds derived up front in matrix order (results are
worker-count independent), fan-out via
:class:`~repro.analysis.parallel.ParallelRunner` (so the supervision /
retry / store-resume stack from fault-tolerant sweeps applies verbatim),
and :func:`~repro.eval.metrics.prequential_metrics` reduced inside the
worker so only the metric dict rides home.

A cell is one ``(scenario, learner)`` pair: the scenario factory builds
its :class:`~repro.spec.ExperimentSpec`, the learner name is grafted on
via ``with_overrides({"learner.name": ...})`` (the scenario's other
hyper-parameters stay fixed, so learners differ *only* in the selection
policy), and the spec runs test-then-train for the scenario's horizon.
Results collect into an :class:`EvalResult` whose table renders the
matrix with one row per cell — the "does RTHS beat sticky under X?"
artifact the ROADMAP asked for.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.reporting import format_float, render_table
from repro.eval.metrics import SCALAR_METRICS, prequential_metrics
from repro.spec.model import (
    ExecutionSpec,
    ExperimentSpec,
    _build,
    _check_unknown_keys,
)
from repro.spec.registry import LEARNERS, SCENARIOS
from repro.util.validation import require_non_negative_int, require_positive_int

#: Scalar columns the matrix table reports, in order.
TABLE_METRICS = SCALAR_METRICS + ("final_window_reward", "final_window_regret")


@dataclass(frozen=True)
class EvalSpec:
    """A declarative learner × scenario evaluation matrix.

    ``scenarios`` and ``learners`` name registry entries (validated at
    construction, so typos fail with the registered menu).  ``rounds``
    and ``backend``, when set, override every scenario's own horizon /
    system backend — the way the pinned CI matrix runs the same corpus
    on both backends.  ``scenario_options`` maps scenario names to extra
    factory keyword arguments (``{"flash_crowd": {"num_peers": 200}}``),
    letting one spec pin a small, CI-sized instance of a big scenario.
    ``window`` is the prequential window in rounds; ``seed`` roots the
    per-cell seed derivation.  ``execution`` is the standard sweep
    fault-tolerance policy and — exactly like
    :class:`~repro.spec.ExperimentSpec` — is excluded from
    :meth:`eval_digest`, so retry knobs never invalidate a store.
    """

    name: str = "eval"
    scenarios: Tuple[str, ...] = ()
    learners: Tuple[str, ...] = ("rths", "sticky")
    window: int = 25
    rounds: Optional[int] = None
    backend: Optional[str] = None
    seed: int = 0
    scenario_options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        for name, registry in (
            ("scenarios", SCENARIOS),
            ("learners", LEARNERS),
        ):
            names = getattr(self, name)
            # A bare string would iterate into one-letter names.
            if not isinstance(names, (list, tuple)) or not all(
                isinstance(item, str) for item in names
            ):
                raise ValueError(
                    f"{name} must be a list of names, got {names!r}"
                )
            for item in names:
                registry.get(item)  # raises with the menu
            object.__setattr__(self, name, tuple(names))
        require_positive_int(self.window, "window")
        if self.rounds is not None:
            require_positive_int(self.rounds, "rounds")
        object.__setattr__(
            self, "seed", require_non_negative_int(self.seed, "seed")
        )
        if self.backend is not None:
            from repro.spec.model import SYSTEM_BACKENDS

            if self.backend not in SYSTEM_BACKENDS:
                raise ValueError(
                    f"backend must be one of {SYSTEM_BACKENDS} or None, "
                    f"got {self.backend!r}"
                )
        if not isinstance(self.scenario_options, Mapping):
            raise ValueError("scenario_options must be a mapping")
        options = {}
        for scenario, opts in self.scenario_options.items():
            if scenario not in self.scenarios:
                raise ValueError(
                    f"scenario_options names {scenario!r}, which is not in "
                    f"scenarios {list(self.scenarios)}"
                )
            if not isinstance(opts, Mapping) or any(
                not isinstance(key, str) for key in opts
            ):
                raise ValueError(
                    f"scenario_options[{scenario!r}] must be a mapping "
                    "with string keys"
                )
            options[scenario] = dict(opts)
        object.__setattr__(self, "scenario_options", options)

    # ------------------------------------------------------------------
    # Serialization (mirrors the ExperimentSpec idiom)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "learners": list(self.learners),
            "window": self.window,
            "rounds": self.rounds,
            "backend": self.backend,
            "seed": self.seed,
            "scenario_options": {
                scenario: dict(opts)
                for scenario, opts in self.scenario_options.items()
            },
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalSpec":
        """Rebuild from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys and wrong-typed values raise :class:`ValueError`,
        as :meth:`ExperimentSpec.from_dict` does.
        """
        _check_unknown_keys(cls, data)
        data = dict(data)
        if "execution" in data:
            data["execution"] = _build(
                "section 'execution'",
                ExecutionSpec.from_dict,
                data["execution"] or {},
            )
        return _build("top-level field", lambda fields: cls(**fields), data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EvalSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "EvalSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def eval_digest(self) -> str:
        """Content hash keying the results store.

        Over the result-determining fields only — the ``execution``
        section (when and whether results arrive, never what they are)
        is excluded, matching
        :meth:`~repro.spec.ExperimentSpec.result_digest`.
        """
        data = self.to_dict()
        data.pop("execution", None)
        canonical = json.dumps(data, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------
    # Matrix expansion
    # ------------------------------------------------------------------

    def parameter_sets(self) -> List[Dict[str, str]]:
        """All matrix cells in deterministic scenario-major order."""
        return [
            {"scenario": scenario, "learner": learner}
            for scenario in self.scenarios
            for learner in self.learners
        ]

    def build_cell_spec(self, scenario: str, learner: str) -> ExperimentSpec:
        """The :class:`~repro.spec.ExperimentSpec` one cell runs.

        Scenario factory + per-scenario options, then the learner name
        (and the matrix-wide ``rounds``/``backend`` pins, when set)
        grafted on as overrides.
        """
        factory = SCENARIOS.get(scenario)
        spec = factory(**self.scenario_options.get(scenario, {}))
        overrides: Dict[str, Any] = {"learner.name": learner}
        if self.rounds is not None:
            overrides["rounds"] = self.rounds
        if self.backend is not None:
            overrides["backend"] = self.backend
        return spec.with_overrides(overrides)


def run_eval_cell(
    eval_dict: Mapping[str, Any], params: Mapping[str, Any], seed: int
) -> Dict[str, Any]:
    """Run one matrix cell; picklable for worker fan-out.

    Rebuilds the :class:`EvalSpec` from its dict form (the scenario
    registry loads its presets itself, under the ``spawn`` start method
    too), runs the cell's experiment with the derived seed, and reduces
    the trace to prequential metrics.  No wall-clock fields — the return
    value is a pure function of ``(eval_dict, params, seed)``, which is
    what makes cells cacheable and bit-identical across worker counts
    and retries.
    """
    spec = EvalSpec.from_dict(eval_dict)
    scenario, learner = params["scenario"], params["learner"]
    cell_spec = spec.build_cell_spec(scenario, learner)
    result = cell_spec.run(seed=seed)
    from repro.telemetry import get_telemetry

    get_telemetry().counter("eval.cells").inc()
    return prequential_metrics(result.trace, spec.window)


@dataclass(frozen=True)
class EvalCell:
    """One completed matrix cell."""

    scenario: str
    learner: str
    metrics: Dict[str, Any]


@dataclass(frozen=True)
class EvalResult:
    """A completed (possibly holed) evaluation matrix.

    ``cells`` is in matrix order (scenario-major, matching
    :meth:`EvalSpec.parameter_sets`) with ``None`` holes for cells that
    failed beyond recovery under ``on_failure="record"``; ``failures``
    carries their :class:`~repro.analysis.supervision.SweepFailure`
    records.
    """

    spec: EvalSpec
    cells: Tuple[Optional[EvalCell], ...]
    failures: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "failures", tuple(self.failures))

    def completed_cells(self) -> List[EvalCell]:
        """Cells that produced metrics, matrix order preserved."""
        return [cell for cell in self.cells if cell is not None]

    def cell(self, scenario: str, learner: str) -> Optional[EvalCell]:
        """The named cell, or ``None`` if it failed."""
        for cell in self.cells:
            if (
                cell is not None
                and cell.scenario == scenario
                and cell.learner == learner
            ):
                return cell
        if {"scenario": scenario, "learner": learner} not in (
            self.spec.parameter_sets()
        ):
            raise KeyError(
                f"({scenario!r}, {learner!r}) is not in the matrix: "
                f"scenarios={list(self.spec.scenarios)}, "
                f"learners={list(self.spec.learners)}"
            )
        return None

    def column(self, metric: str) -> Dict[Tuple[str, str], float]:
        """``(scenario, learner) -> value`` for one scalar metric."""
        return {
            (cell.scenario, cell.learner): cell.metrics[metric]
            for cell in self.completed_cells()
        }

    def compare(
        self, metric: str, learner_a: str, learner_b: str
    ) -> Dict[str, float]:
        """Per-scenario ``a - b`` deltas of one scalar metric.

        Scenarios where either learner's cell failed are omitted.
        """
        column = self.column(metric)
        deltas = {}
        for scenario in self.spec.scenarios:
            a = column.get((scenario, learner_a))
            b = column.get((scenario, learner_b))
            if a is not None and b is not None:
                deltas[scenario] = float(a) - float(b)
        return deltas

    def _rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for params, cell in zip(self.spec.parameter_sets(), self.cells):
            if cell is None:
                rows.append(
                    [params["scenario"], params["learner"]]
                    + ["FAILED"] * len(TABLE_METRICS)
                )
            else:
                rows.append(
                    [cell.scenario, cell.learner]
                    + [float(cell.metrics[m]) for m in TABLE_METRICS]
                )
        return rows

    def to_table(self) -> str:
        """Aligned ASCII matrix table (one row per cell)."""
        if not self.cells:
            raise ValueError("evaluation matrix is empty")
        return render_table(
            ["scenario", "learner", *TABLE_METRICS], self._rows()
        )

    def to_markdown(self) -> str:
        """The matrix as a GitHub-flavored markdown pipe table."""
        if not self.cells:
            raise ValueError("evaluation matrix is empty")
        headers = ["scenario", "learner", *TABLE_METRICS]
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        for row in self._rows():
            cells = [
                format_float(c) if isinstance(c, float) else str(c)
                for c in row
            ]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-plain form (window arrays as lists)."""

        def plain(value):
            if isinstance(value, np.ndarray):
                return [float(v) for v in value]
            if isinstance(value, (np.floating, np.integer)):
                return float(value)
            return value

        return {
            "spec": self.spec.to_dict(),
            "cells": [
                None
                if cell is None
                else {
                    "scenario": cell.scenario,
                    "learner": cell.learner,
                    "metrics": {
                        key: plain(val) for key, val in cell.metrics.items()
                    },
                }
                for cell in self.cells
            ],
            "failures": [failure.describe() for failure in self.failures],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class Evaluator:
    """Run an :class:`EvalSpec` matrix through the sweep machinery.

    A thin orchestration layer: every hard property — deterministic
    per-cell seeds, worker-count independence, supervision/retry,
    store-resume — is inherited from
    :class:`~repro.analysis.parallel.ParallelRunner`, which the spec
    sweeps already exercise.  Construct with ``workers`` (or inject a
    configured ``runner``) and call :meth:`run`.
    """

    def __init__(self, workers: int = 1, runner=None) -> None:
        if runner is None:
            from repro.analysis.parallel import ParallelRunner

            runner = ParallelRunner(workers=workers)
        self._runner = runner

    def run(self, spec: EvalSpec, store=None) -> EvalResult:
        """Evaluate every matrix cell; returns an :class:`EvalResult`.

        ``store`` — a directory path or
        :class:`~repro.store.ResultsStore` — makes cells durable and
        resumable exactly like sweep cells: committed cells are cache
        hits (no worker dispatched), keyed by :meth:`EvalSpec.eval_digest`
        plus the per-cell params/seed digest.

        Every cell spec is built *before* dispatch, so a spec that
        cannot build (a scenario option typo, a learner without the
        needed backend) fails fast here with the offending cell named,
        instead of as a worker traceback per cell.
        """
        parameter_sets = spec.parameter_sets()
        if not parameter_sets:
            raise ValueError(
                "evaluation matrix is empty: spec needs at least one "
                "scenario and one learner"
            )
        for params in parameter_sets:
            try:
                spec.build_cell_spec(params["scenario"], params["learner"])
            except Exception as exc:
                raise ValueError(
                    f"eval cell scenario={params['scenario']!r} "
                    f"learner={params['learner']!r} cannot build: {exc}"
                ) from exc
        if store is not None and not hasattr(store, "get"):
            from repro.store import ResultsStore

            store = ResultsStore(store)
        failures: list = []
        cells = self._runner.map_cells(
            functools.partial(run_eval_cell, spec.to_dict()),
            parameter_sets,
            rng=spec.seed,
            execution=spec.execution,
            store=store,
            spec_digest=spec.eval_digest(),
            failures_out=failures,
        )
        return EvalResult(
            spec=spec,
            cells=tuple(
                None
                if cell is None
                else EvalCell(
                    scenario=params["scenario"],
                    learner=params["learner"],
                    metrics=dict(cell.metrics),
                )
                for params, cell in zip(parameter_sets, cells)
            ),
            failures=tuple(failures),
        )


def evaluate(
    spec: EvalSpec,
    workers: int = 1,
    store=None,
) -> EvalResult:
    """One-call convenience: ``Evaluator(workers).run(spec, store)``."""
    return Evaluator(workers=workers).run(spec, store=store)
