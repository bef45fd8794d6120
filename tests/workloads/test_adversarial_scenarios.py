"""Tests for the adversarial scenario corpus (spec factories + registry)."""

import numpy as np
import pytest

import repro.workloads  # noqa: F401  (registration side effect)
from repro.spec import SCENARIOS, ExperimentSpec
from repro.workloads import (
    correlated_failures_spec,
    diurnal_mix_spec,
    flash_storm_spec,
    oscillating_capacity_spec,
)

CORPUS = {
    "correlated_failures": correlated_failures_spec,
    "oscillating_capacity": oscillating_capacity_spec,
    "flash_storm": flash_storm_spec,
    "diurnal_mix": diurnal_mix_spec,
}

SMALL = {
    "num_peers": 12,
    "num_helpers": 4,
    "num_channels": 2,
    "num_stages": 10,
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_registered_under_its_name(self, name):
        assert SCENARIOS.get(name) is CORPUS[name]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_factory_builds_a_valid_spec(self, name):
        spec = SCENARIOS.get(name)()
        assert isinstance(spec, ExperimentSpec)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_spec_round_trips_through_json(self, name):
        spec = CORPUS[name](**SMALL)
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestCorpusContracts:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_finite_server_budget_is_pinned(self, name):
        spec = CORPUS[name](**SMALL)
        assert spec.capacity.server_capacity is not None
        # Half the aggregate demand by default: stalls are a live metric.
        demand = SMALL["num_peers"] * 100.0
        assert spec.capacity.server_capacity == pytest.approx(0.5 * demand)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_explicit_server_capacity_wins(self, name):
        spec = CORPUS[name](**SMALL, server_capacity=123.0)
        assert spec.capacity.server_capacity == 123.0

    def test_flash_storm_composes_churn_and_failures(self):
        spec = flash_storm_spec(**SMALL)
        assert spec.churn.arrival_rate > 0
        assert [t.name for t in spec.capacity.transforms] == ["failures"]

    def test_diurnal_mix_drifts_popularity_over_oscillating_capacity(self):
        spec = diurnal_mix_spec(**SMALL)
        assert spec.topology.popularity_drift_rate > 0
        assert [t.name for t in spec.capacity.transforms] == ["oscillating"]


class TestCorpusRuns:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_short_run_vectorized(self, name):
        result = CORPUS[name](**SMALL).run()
        assert result.trace.num_rounds == SMALL["num_stages"]

    @pytest.mark.parametrize(
        "name", ["correlated_failures", "oscillating_capacity"]
    )
    def test_short_run_scalar(self, name):
        result = CORPUS[name](**SMALL, backend="scalar").run()
        assert result.trace.num_rounds == SMALL["num_stages"]

    def test_same_seed_reproduces(self):
        spec = correlated_failures_spec(**SMALL)
        assert spec.run().metrics == spec.run().metrics


#: A small ``diurnal_mix`` run, pinned per backend: its headline metrics
#: (rtol 1e-6) and each helper's load summed over the run (exact).  The
#: run has churn, viewer switching and popularity drift, so the pin
#: covers the channel draws after each drift step, which no other pinned
#: result does.
DRIFT_RUN = {
    "num_peers": 200,
    "num_helpers": 12,
    "num_channels": 4,
    "num_stages": 80,
}
DRIFT_METRICS = [
    "rounds", "mean_welfare", "final_welfare", "tail_welfare",
    "mean_server_load", "mean_min_deficit", "mean_online_peers", "load_jain",
]
DRIFT_PIN = {
    "vectorized": (
        [80.0, 7155.0, 6850.0, 7115.0, 10000.0, 52638.75, 568.3875,
         0.7831141465597051],
        [6556, 3512, 2694, 1771, 7656, 3536, 3012, 1812, 6824, 3776, 2741, 1581],
    ),
    "scalar": (
        [80.0, 7155.0, 6850.0, 7115.0, 10000.0, 50610.0, 548.1,
         0.7472291156623193],
        [7497, 3425, 2086, 1863, 6988, 3278, 2423, 1825, 7131, 3253, 2295, 1784],
    ),
}


def drift_run(backend, **overrides):
    spec = diurnal_mix_spec(**DRIFT_RUN, backend=backend).with_overrides(
        {"metrics.metrics": DRIFT_METRICS, **overrides}
    )
    return spec.run()


class TestDiurnalMixPin:
    @pytest.mark.parametrize("backend", sorted(DRIFT_PIN))
    def test_metrics_and_loads_are_pinned(self, backend):
        result = drift_run(backend)
        metrics, loads = DRIFT_PIN[backend]
        got = [result.metrics[name] for name in DRIFT_METRICS]
        np.testing.assert_allclose(got, metrics, rtol=1e-6)
        assert result.trace.loads.sum(axis=0).tolist() == loads

    def test_pin_sees_the_drift(self):
        """Without drift the same run loads the helpers differently, so
        the pinned loads do depend on the drifted channel draws."""
        result = drift_run("vectorized", **{"topology.popularity_drift_rate": 0.0})
        assert result.trace.loads.sum(axis=0).tolist() != DRIFT_PIN["vectorized"][1]
