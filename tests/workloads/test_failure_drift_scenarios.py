"""The churn-heavy / skew-shifting scenario registry entries.

``helper_failures`` (outage-injecting capacity transform + Poisson churn)
and ``popularity_drift`` (diurnal Zipf drift + viewer switching) must be
resolvable by name, build on the vectorized backend with the fused
engine, and actually exercise their distinguishing dynamics.
"""

import numpy as np

from repro.runtime import GroupedRegretBank
from repro.spec import SCENARIOS, ExperimentSpec
from repro.workloads.scenarios import helper_failures_spec, popularity_drift_spec


def small(factory, **kwargs):
    return factory(
        num_peers=200, num_helpers=16, num_channels=4, num_stages=40, **kwargs
    )


class TestHelperFailuresScenario:
    def test_registered_and_buildable(self):
        assert "helper_failures" in SCENARIOS
        spec = small(SCENARIOS.get("helper_failures"))
        assert isinstance(spec, ExperimentSpec)
        assert [t.name for t in spec.capacity.transforms] == ["failures"]
        assert spec.churn.arrival_rate > 0
        assert isinstance(spec.build().bank, GroupedRegretBank)

    def test_outages_reach_the_trace(self):
        spec = small(
            helper_failures_spec, failure_rate=0.2, mean_outage_rounds=5.0
        )
        trace = spec.run().trace
        # Failed helpers read zero capacity; with rate 0.2 over 40 rounds
        # x 16 helpers outages are certain.
        assert int((trace.capacities == 0.0).sum()) > 0
        # With a positive failure rate the minimum-capacity floor is
        # zero, so the structural deficit equals total demand.
        assert np.allclose(trace.min_deficit, trace.total_demand)

    def test_failure_parameters_flow_through_options(self):
        spec = small(helper_failures_spec, failure_rate=0.77)
        assert spec.capacity.transforms[0].options["failure_rate"] == 0.77
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.capacity.transforms[0].options["failure_rate"] == 0.77


class TestPopularityDriftScenario:
    def test_registered_and_buildable(self):
        assert "popularity_drift" in SCENARIOS
        spec = small(SCENARIOS.get("popularity_drift"))
        assert spec.topology.popularity_drift_rate > 0
        assert spec.topology.channel_switch_rate > 0
        assert isinstance(spec.build().bank, GroupedRegretBank)

    def test_weights_drift_during_the_run(self):
        spec = small(popularity_drift_spec, drift_rate=0.3, drift_period=2.0)
        system = spec.build()
        before = system.channel_weights
        system.run(spec.rounds)
        after = system.channel_weights
        assert not np.allclose(before, after)
        assert after.min() >= 0 and np.isclose(after.sum(), 1.0)

    def test_drift_round_trips_through_the_spec(self):
        spec = small(popularity_drift_spec, drift_rate=0.25, drift_period=7.0)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.topology.popularity_drift_rate == 0.25
        assert clone.topology.popularity_drift_period == 7.0

    def test_scalar_backend_shares_drift_semantics(self):
        spec = popularity_drift_spec(
            num_peers=40, num_helpers=8, num_channels=4, num_stages=15,
            drift_rate=0.3, drift_period=2.0, backend="scalar",
            channel_switch_rate=1.0, arrival_rate=2.0, mean_lifetime=20.0,
        )
        system = spec.build()
        before = system.channel_weights
        system.run(spec.rounds)
        assert not np.allclose(before, system.channel_weights)
