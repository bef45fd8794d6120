"""Tests for repro.workloads.scenarios."""

import pytest

from repro.workloads.scenarios import (
    Scenario,
    fig5_scenario,
    large_scale_scenario,
    make_learner_population,
    make_system_config,
    massive_scale_scenario,
    small_scale_scenario,
)


class TestMassiveScaleScenario:
    def test_defaults_are_population_scale(self):
        scenario = massive_scale_scenario()
        assert scenario.num_peers >= 100_000
        assert scenario.num_channels > 1
        assert scenario.num_helpers >= scenario.num_channels

    def test_make_system_config(self):
        scenario = massive_scale_scenario(
            num_peers=100, num_helpers=8, num_channels=2, num_stages=10
        )
        config = make_system_config(scenario)
        assert config.num_peers == 100
        assert config.num_channels == 2
        assert config.channel_bitrates == (100.0, 100.0)

    def test_vectorized_system_runs(self):
        scenario = massive_scale_scenario(
            num_peers=400, num_helpers=8, num_channels=2, num_stages=5
        )
        system = scenario.to_spec().build(rng=0)
        trace = system.run(scenario.num_stages)
        assert trace.num_rounds == 5
        assert trace.online_peers[-1] == 400
        assert (trace.loads.sum(axis=1) == 400).all()

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", num_peers=4, num_helpers=2, num_channels=3)


class TestCannedScenarios:
    def test_small_scale_matches_paper(self):
        scenario = small_scale_scenario()
        assert scenario.num_peers == 10
        assert scenario.num_helpers == 4
        assert scenario.bandwidth_levels == (700.0, 800.0, 900.0)

    def test_large_scale_defaults(self):
        scenario = large_scale_scenario()
        assert scenario.num_peers == 100
        assert scenario.num_helpers == 10

    def test_fig5_has_structural_deficit(self):
        scenario = fig5_scenario()
        total_demand = scenario.num_peers * scenario.demand_per_peer
        min_capacity = scenario.num_helpers * min(scenario.bandwidth_levels)
        assert total_demand > min_capacity

    def test_u_max_is_top_level(self):
        assert small_scale_scenario().u_max == 900.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", num_peers=0, num_helpers=4)
        with pytest.raises(ValueError):
            Scenario(name="bad", num_peers=2, num_helpers=1)
        with pytest.raises(ValueError):
            Scenario(name="bad", num_peers=2, num_helpers=2, epsilon=0.0)


class TestFactories:
    def test_capacity_process_size(self):
        scenario = small_scale_scenario()
        process = scenario.to_spec(backend="scalar").build_capacity_process(rng=0)
        assert process.num_helpers == 4

    def test_population_size(self):
        scenario = small_scale_scenario()
        population = make_learner_population(scenario, rng=0)
        assert population.num_peers == 10
        assert population.num_helpers == 4

    def test_run_scenario_end_to_end(self):
        scenario = small_scale_scenario(num_stages=50)
        trace = scenario.to_spec(backend="scalar").run(seed=0).trace
        assert trace.welfare.shape == (50,)
        assert trace.online_peers[-1] == scenario.num_peers

    def test_run_scenario_reproducible(self):
        spec = small_scale_scenario(num_stages=30).to_spec(backend="scalar")
        w1 = spec.run(seed=5).trace.welfare
        w2 = spec.run(seed=5).trace.welfare
        assert (w1 == w2).all()


class TestHeterogeneousScenario:
    def test_factory_builds_two_helper_classes(self):
        from repro.workloads.scenarios import (
            heterogeneous_scenario,
            make_heterogeneous_process,
        )

        scenario = heterogeneous_scenario()
        process = make_heterogeneous_process(scenario, rng=0)
        expected = process.expected_capacities()
        # First half strong (mean 1600), second half weak (mean 400).
        assert all(e > 1000 for e in expected[: scenario.num_helpers // 2])
        assert all(e < 1000 for e in expected[scenario.num_helpers // 2 :])

    def test_learners_respect_capacity_classes(self):
        from repro.core import LearnerPopulation
        from repro.workloads.scenarios import (
            heterogeneous_scenario,
            make_heterogeneous_process,
        )

        scenario = heterogeneous_scenario(num_stages=1500)
        process = make_heterogeneous_process(scenario, rng=1)
        population = LearnerPopulation(
            scenario.num_peers,
            scenario.num_helpers,
            epsilon=0.01,
            mu=0.25,
            u_max=scenario.u_max,
            rng=2,
        )
        trajectory = population.run(process, scenario.num_stages)
        loads = trajectory.loads[-300:].mean(axis=0)
        strong = loads[: scenario.num_helpers // 2].mean()
        weak = loads[scenario.num_helpers // 2 :].mean()
        # Strong helpers must carry clearly more peers than weak ones
        # (proportional target would be 4:1; uniform random gives 1:1).
        assert strong > weak * 1.6
