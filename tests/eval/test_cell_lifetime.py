"""Each run's system is freed when the run ends, not by the garbage collector.

A built streaming system is referred to by its pending simulator events
(round, churn, switch and drift callbacks) and by the processes those
events drive.  If any of that forms a reference cycle, the system
outlives :meth:`ExperimentSpec.run` until a collection happens to reach
it, and a many-cell ``repro eval`` holds several dead systems at once.
With the collector off, reference counting alone must free them.
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

import repro.workloads  # noqa: F401  (scenario registration)
from repro.eval import EvalSpec
from repro.spec import ExperimentSpec

MATRIX = Path(__file__).resolve().parents[2] / "examples" / "eval_matrix.json"


def pinned_matrix() -> EvalSpec:
    spec = json.loads(MATRIX.read_text())
    spec["backend"] = "vectorized"
    return EvalSpec.from_dict(spec)


@pytest.fixture
def built_systems(monkeypatch):
    """Weak references to every system ``ExperimentSpec.build`` returns,
    with the garbage collector off for the test."""
    refs = []
    build = ExperimentSpec.build

    def recording_build(spec, *args, **kwargs):
        system = build(spec, *args, **kwargs)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(ExperimentSpec, "build", recording_build)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_all_freed(refs):
    assert refs, "no system was built"
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert not alive, f"still referenced after run(): {alive}"


@pytest.mark.parametrize(
    "scenario,learner",
    [(p["scenario"], p["learner"]) for p in pinned_matrix().parameter_sets()],
)
def test_pinned_cell_frees_its_system(built_systems, scenario, learner):
    pinned_matrix().build_cell_spec(scenario, learner).run(seed=0)
    assert_all_freed(built_systems)


# Periodic popularity drift and viewer switching schedule themselves
# again from inside their own callbacks.
@pytest.mark.parametrize("backend", ["vectorized", "scalar"])
@pytest.mark.parametrize("scenario", ["diurnal_mix", "cross_region_flash_crowd"])
def test_self_rescheduling_processes_free_the_system(built_systems, backend, scenario):
    small = {"num_peers": 20, "num_helpers": 6, "num_channels": 2, "num_stages": 25}
    spec = EvalSpec(
        name="lifetime",
        scenarios=(scenario,),
        learners=("rths",),
        backend=backend,
        scenario_options={scenario: small},
    )
    spec.build_cell_spec(scenario, "rths").run(seed=0)
    assert_all_freed(built_systems)
