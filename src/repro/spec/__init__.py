"""Declarative experiment specs and component registries.

The public API of the spec layer:

* :class:`~repro.spec.model.ExperimentSpec` and its section dataclasses —
  one serializable description of an experiment that every layer
  (workloads, analysis, CLI, both system backends) consumes;
* the component registries and their ``register_*`` hooks — the plug-in
  points for third-party capacity backends, learners, scenarios and
  metrics;
* :func:`~repro.spec.cells.run_spec_cell` — the picklable sweep cell.

Each registry loads its built-in entries on first use: the stock
components from :mod:`repro.spec.builtins`, the scenario presets from
:mod:`repro.workloads.scenarios`, ``.adversarial`` and ``.geo``.  No
caller imports them for their side effects.
"""

from repro.spec.registry import (
    CAPACITY_BACKENDS,
    CAPACITY_TRANSFORMS,
    LEARNERS,
    METRICS,
    SCENARIOS,
    LearnerEntry,
    Registry,
    TransformEntry,
    UnknownComponentError,
    register_capacity_backend,
    register_capacity_transform,
    register_learner,
    register_metric,
    register_scenario,
)

from repro.spec.cells import run_spec_cell
from repro.spec.model import (
    SPEC_DTYPES,
    SYSTEM_BACKENDS,
    CapacitySpec,
    ChurnSpec,
    ExecutionSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    NetworkSpec,
    RunResult,
    SweepSpec,
    TelemetrySpec,
    TopologySpec,
    TransformSpec,
)

__all__ = [
    # registries
    "Registry",
    "LearnerEntry",
    "TransformEntry",
    "UnknownComponentError",
    "CAPACITY_BACKENDS",
    "CAPACITY_TRANSFORMS",
    "LEARNERS",
    "SCENARIOS",
    "METRICS",
    "register_capacity_backend",
    "register_capacity_transform",
    "register_learner",
    "register_scenario",
    "register_metric",
    # model
    "ExperimentSpec",
    "TopologySpec",
    "CapacitySpec",
    "NetworkSpec",
    "TransformSpec",
    "LearnerSpec",
    "ChurnSpec",
    "MetricsSpec",
    "TelemetrySpec",
    "ExecutionSpec",
    "SweepSpec",
    "RunResult",
    "SYSTEM_BACKENDS",
    "SPEC_DTYPES",
    # cells
    "run_spec_cell",
]
