"""Tests for repro.workloads.scenarios."""

import pytest

from repro.workloads.scenarios import (
    fig5_spec,
    large_scale_spec,
    massive_scale_spec,
    small_scale_spec,
)


class TestMassiveScaleScenario:
    def test_defaults_are_population_scale(self):
        topology = massive_scale_spec().topology
        assert topology.num_peers >= 100_000
        assert topology.num_channels > 1
        assert topology.num_helpers >= topology.num_channels

    def test_scale_reaches_the_topology(self):
        spec = massive_scale_spec(
            num_peers=100, num_helpers=8, num_channels=2, num_stages=10
        )
        assert spec.topology.num_peers == 100
        assert spec.topology.num_channels == 2
        assert spec.topology.bitrates() == (100.0, 100.0)

    def test_vectorized_system_runs(self):
        spec = massive_scale_spec(
            num_peers=400, num_helpers=8, num_channels=2, num_stages=5
        )
        system = spec.build(rng=0)
        trace = system.run(spec.rounds)
        assert trace.num_rounds == 5
        assert trace.online_peers[-1] == 400
        assert (trace.loads.sum(axis=1) == 400).all()

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            massive_scale_spec(num_peers=4, num_helpers=2, num_channels=3)
        # Regret learners need two helpers on every channel.
        with pytest.raises(ValueError, match="helper"):
            massive_scale_spec(num_peers=4, num_helpers=3, num_channels=2)


class TestCannedScenarios:
    def test_small_scale_matches_paper(self):
        spec = small_scale_spec()
        assert spec.topology.num_peers == 10
        assert spec.topology.num_helpers == 4
        assert spec.capacity.levels == (700.0, 800.0, 900.0)

    def test_large_scale_defaults(self):
        spec = large_scale_spec()
        assert spec.topology.num_peers == 100
        assert spec.topology.num_helpers == 10

    def test_fig5_has_structural_deficit(self):
        spec = fig5_spec()
        total_demand = spec.topology.num_peers * spec.topology.channel_bitrates
        min_capacity = spec.topology.num_helpers * min(spec.capacity.levels)
        assert total_demand > min_capacity

    def test_u_max_is_top_level(self):
        assert small_scale_spec().u_max == 900.0

    def test_validation(self):
        # A preset validates through the spec it returns.
        with pytest.raises(ValueError):
            large_scale_spec(num_peers=0)
        with pytest.raises(ValueError):
            large_scale_spec(num_helpers=1)
        with pytest.raises(ValueError):
            small_scale_spec(num_stages=0)


class TestFactories:
    def test_capacity_process_size(self):
        spec = small_scale_spec(backend="scalar")
        process = spec.build_capacity_process(rng=0)
        assert process.num_helpers == 4

    def test_population_size(self):
        population = small_scale_spec().build_population(rng=0)
        assert population.num_peers == 10
        assert population.num_helpers == 4

    def test_run_scenario_end_to_end(self):
        spec = small_scale_spec(num_stages=50, backend="scalar")
        trace = spec.run(seed=0).trace
        assert trace.welfare.shape == (50,)
        assert trace.online_peers[-1] == spec.topology.num_peers

    def test_run_scenario_reproducible(self):
        spec = small_scale_spec(num_stages=30, backend="scalar")
        w1 = spec.run(seed=5).trace.welfare
        w2 = spec.run(seed=5).trace.welfare
        assert (w1 == w2).all()


class TestHeterogeneousScenario:
    def test_factory_builds_two_helper_classes(self):
        from repro.workloads.scenarios import (
            heterogeneous_spec,
            make_heterogeneous_process,
        )

        spec = heterogeneous_spec()
        half = spec.topology.num_helpers // 2
        process = make_heterogeneous_process(spec, rng=0)
        expected = process.expected_capacities()
        # First half strong (mean 1600), second half weak (mean 400).
        assert all(e > 1000 for e in expected[:half])
        assert all(e < 1000 for e in expected[half:])

    def test_learners_respect_capacity_classes(self):
        from repro.core import LearnerPopulation
        from repro.workloads.scenarios import (
            heterogeneous_spec,
            make_heterogeneous_process,
        )

        spec = heterogeneous_spec(num_stages=1500)
        num_helpers = spec.topology.num_helpers
        process = make_heterogeneous_process(spec, rng=1)
        population = LearnerPopulation(
            spec.topology.num_peers,
            num_helpers,
            epsilon=0.01,
            mu=0.25,
            u_max=spec.u_max,
            rng=2,
        )
        trajectory = population.run(process, spec.rounds)
        loads = trajectory.loads[-300:].mean(axis=0)
        strong = loads[: num_helpers // 2].mean()
        weak = loads[num_helpers // 2 :].mean()
        # Strong helpers must carry clearly more peers than weak ones
        # (proportional target would be 4:1; uniform random gives 1:1).
        assert strong > weak * 1.6
