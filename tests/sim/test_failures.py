"""Tests for helper failure injection with one failure domain per helper.

Independent per-helper outages are :class:`CorrelatedFailureProcess`
with ``num_groups`` equal to the helper count, which is what the
``failures`` capacity transform builds.
"""

import numpy as np
import pytest

from repro.core import LearnerPopulation
from repro.game.repeated_game import StaticCapacities
from repro.sim.failures import CorrelatedFailureProcess, availability
from repro.spec import CapacitySpec, ExperimentSpec, TopologySpec, TransformSpec


def per_helper(base, failure_rate, mean_outage_rounds=20.0, rng=None):
    """Independent outages: the domain process with one helper a domain."""
    return CorrelatedFailureProcess(
        base,
        num_groups=base.num_helpers,
        group_failure_rate=failure_rate,
        mean_outage_rounds=mean_outage_rounds,
        rng=rng,
    )


class TestFailuresTransform:
    def test_builds_one_domain_per_helper(self):
        spec = ExperimentSpec(
            topology=TopologySpec(num_peers=20, num_helpers=6, channel_bitrates=100.0),
            capacity=CapacitySpec(transforms=(
                TransformSpec(name="failures", options={"failure_rate": 0.3}),
            )),
        )
        process = spec.build_capacity_process(rng=0)
        assert isinstance(process, CorrelatedFailureProcess)
        assert process._groups.tolist() == list(range(6))

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_equals_correlated_failures_with_a_domain_per_helper(self, backend):
        """Stage for stage, the ``failures`` transform is the
        ``correlated_failures`` transform with ``num_groups`` equal to
        the helper count, on either capacity backend."""

        def build(name, options):
            spec = ExperimentSpec(
                topology=TopologySpec(
                    num_peers=20, num_helpers=6, channel_bitrates=100.0
                ),
                capacity=CapacitySpec(
                    backend=backend,
                    transforms=(TransformSpec(name=name, options=options),),
                ),
            )
            return spec.build_capacity_process(rng=5)

        independent = build(
            "failures", {"failure_rate": 0.3, "mean_outage_rounds": 4.0}
        )
        domains = build("correlated_failures", {
            "num_groups": 6, "group_failure_rate": 0.3, "mean_outage_rounds": 4.0,
        })
        for _ in range(300):
            assert independent.capacities().tobytes() == domains.capacities().tobytes()
            assert np.array_equal(independent.failed, domains.failed)
            independent.advance()
            domains.advance()
        assert independent.outages_started == domains.outages_started > 0
        assert np.array_equal(
            independent.minimum_capacities(), domains.minimum_capacities()
        )


class TestIndependentFailures:
    def test_zero_rate_never_fails(self):
        process = per_helper(
            StaticCapacities([800.0, 800.0]), failure_rate=0.0, rng=0
        )
        for _ in range(200):
            assert not process.failed.any()
            process.advance()
        assert process.outages_started == 0

    def test_failed_helper_reads_zero_capacity(self):
        process = per_helper(
            StaticCapacities([800.0, 800.0]), failure_rate=0.5,
            mean_outage_rounds=10.0, rng=1,
        )
        saw_failure = False
        for _ in range(100):
            caps = process.capacities()
            mask = process.failed
            if mask.any():
                saw_failure = True
                assert np.all(caps[mask] == 0.0)
                assert np.all(caps[~mask] == 800.0)
            process.advance()
        assert saw_failure

    def test_helpers_recover(self):
        process = per_helper(
            StaticCapacities([800.0]), failure_rate=1.0,
            mean_outage_rounds=2.0, rng=2,
        )
        process.advance()  # must fail immediately (rate 1.0)
        assert process.failed[0]
        recovered = False
        for _ in range(100):
            process.advance()
            if not process.failed[0]:
                recovered = True
                break
        assert recovered

    def test_outage_accounting(self):
        process = per_helper(
            StaticCapacities([800.0, 800.0]), failure_rate=0.2,
            mean_outage_rounds=5.0, rng=3,
        )
        for _ in range(300):
            process.advance()
        assert process.outages_started > 0
        assert process.failed_helper_stages > 0

    def test_availability_matches_parameters(self):
        # Steady-state availability ~ recovery / (failure + recovery).
        fail, mean_outage = 0.02, 10.0
        process = per_helper(
            StaticCapacities([800.0] * 8), failure_rate=fail,
            mean_outage_rounds=mean_outage, rng=4,
        )
        measured = availability(process, 4000)
        expected = (1 / mean_outage) / (fail + 1 / mean_outage)
        assert measured == pytest.approx(expected, abs=0.06)

    def test_validation(self):
        with pytest.raises(ValueError):
            per_helper(StaticCapacities([1.0]), failure_rate=1.5)
        with pytest.raises(ValueError):
            per_helper(
                StaticCapacities([1.0]), failure_rate=0.1, mean_outage_rounds=0.0
            )
        process = per_helper(
            StaticCapacities([1.0]), failure_rate=0.1, rng=0
        )
        with pytest.raises(ValueError):
            availability(process, 0)


class TestFailureEdgeCases:
    """Edge-of-parameter-space behavior: certain failure, instant
    recovery, and the all-failed regime."""

    def test_certain_failure_instant_recovery_oscillates(self):
        # rate=1.0 with mean_outage_rounds=1.0 (recovery probability 1.0)
        # is fully deterministic: every draw satisfies both thresholds, and
        # recoveries are applied before fresh failures, so the population
        # alternates all-healthy / all-failed with period 2.
        process = per_helper(
            StaticCapacities([800.0] * 4), failure_rate=1.0,
            mean_outage_rounds=1.0, rng=0,
        )
        for stage in range(10):
            if stage % 2 == 0:
                assert not process.failed.any()
            else:
                assert process.failed.all()
            process.advance()

    def test_certain_failure_availability_exactly_half(self):
        process = per_helper(
            StaticCapacities([800.0] * 4), failure_rate=1.0,
            mean_outage_rounds=1.0, rng=0,
        )
        # Over an even number of stages the period-2 oscillation spends
        # exactly half its helper-stages failed.
        assert availability(process, 100) == pytest.approx(0.5)

    def test_instant_recovery_analog_requires_positive_outage(self):
        # "recovery_time = 0" has no direct encoding: mean_outage_rounds
        # is the reciprocal of the recovery probability, so the fastest
        # legal recovery is mean_outage_rounds=1.0 and zero must raise.
        with pytest.raises(ValueError):
            per_helper(
                StaticCapacities([1.0]), failure_rate=0.5,
                mean_outage_rounds=0.0,
            )
        process = per_helper(
            StaticCapacities([800.0, 800.0]), failure_rate=0.5,
            mean_outage_rounds=1.0, rng=3,
        )
        # With recovery probability 1.0 no outage survives a stage: any
        # helper seen failed now was healthy on the previous stage.
        previous = process.failed
        for _ in range(50):
            process.advance()
            current = process.failed
            assert not (previous & current).any()
            previous = current

    def test_recovery_from_all_failed(self):
        process = per_helper(
            StaticCapacities([800.0] * 8), failure_rate=0.0,
            mean_outage_rounds=4.0, rng=5,
        )
        process._group_failed[:] = True  # test hook: pin every helper down
        assert np.all(process.capacities() == 0.0)
        # With rate 0 only recoveries happen: the outage mask shrinks
        # monotonically, staggered by the geometric outage lengths, and
        # the counters never record a fresh outage.
        saw_partial = False
        for _ in range(200):
            before = process.failed
            process.advance()
            assert not (~before & process.failed).any()  # no fresh outages
            if process.failed.any() and not process.failed.all():
                saw_partial = True
            if not process.failed.any():
                break
        assert not process.failed.any()
        assert saw_partial  # recovery was staggered, not all-at-once
        assert process.outages_started == 0
        assert np.all(process.capacities() == 800.0)

    def test_all_failed_blocks_fresh_outages(self):
        # At rate 1.0 the only helpers that can start a new outage are
        # those that recovered on an *earlier* stage; while the whole
        # population is down, outages_started must stay flat.
        process = per_helper(
            StaticCapacities([800.0] * 8), failure_rate=1.0,
            mean_outage_rounds=50.0, rng=5,
        )
        process.advance()
        assert process.failed.all()
        assert process.outages_started == 8
        for _ in range(100):
            before = process.failed
            started_before = process.outages_started
            process.advance()
            if before.all():
                assert process.outages_started == started_before

    def test_availability_consistent_with_failed_stage_count(self):
        # availability() and failed_helper_stages observe the same
        # pre-advance mask, so they must partition helper-stages exactly.
        num_stages, num_helpers = 137, 6
        process = per_helper(
            StaticCapacities([800.0] * num_helpers), failure_rate=0.3,
            mean_outage_rounds=3.0, rng=9,
        )
        measured = availability(process, num_stages)
        total = num_stages * num_helpers
        assert measured == pytest.approx(
            1.0 - process.failed_helper_stages / total
        )

    def test_minimum_capacities_consistent_with_rate(self):
        base = StaticCapacities([800.0, 600.0])
        risky = per_helper(
            base, failure_rate=1.0, mean_outage_rounds=1.0, rng=0
        )
        # Any positive failure rate can zero a helper, so the worst-case
        # floor collapses — even under instant recovery.
        assert np.all(risky.minimum_capacities() == 0.0)
        safe = per_helper(base, failure_rate=0.0, rng=0)
        np.testing.assert_array_equal(
            safe.minimum_capacities(), base.minimum_capacities()
        )


class TestLearnersUnderFailures:
    def test_population_evacuates_failed_helper(self):
        """When a helper dies, RTHS peers drain off it within a few dozen
        stages (their shares drop to zero and regrets point elsewhere)."""
        base = StaticCapacities([800.0, 800.0, 800.0])
        process = per_helper(
            base, failure_rate=0.0, mean_outage_rounds=1e9, rng=0
        )
        population = LearnerPopulation(
            12, 3, epsilon=0.01, delta=0.1, mu=0.25, u_max=900.0, rng=5
        )
        population.run(process, 400)  # converge on healthy helpers
        before = population.run(process, 100).loads[:, 0].mean()
        # Force helper 0 down permanently.
        process._group_failed[0] = True  # test hook: pin the outage
        trajectory = population.run(process, 500)
        late_load = trajectory.loads[-100:, 0].mean()
        # Residual load = the delta-exploration floor plus the re-entry
        # trap documented in repro.core.proxy_regret (an exploring peer
        # lands on a stale regret row and needs ~1/delta stages to bounce
        # off), so the dead helper is not empty — but it must lose most of
        # its load.
        assert late_load < before * 0.55
        assert late_load < 2.0

    def test_rates_zero_on_failed_helper(self):
        process = per_helper(
            StaticCapacities([800.0, 800.0]), failure_rate=1.0,
            mean_outage_rounds=1e9, rng=6,
        )
        process.advance()  # both helpers now down
        population = LearnerPopulation(4, 2, u_max=900.0, rng=7)
        trajectory = population.run(process, 10)
        assert np.all(trajectory.utilities[1:] == 0.0)
