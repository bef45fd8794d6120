"""Tests for repro.mdp.markov_chain.BatchMarkovChains.

The batch bank must realize the *same process law* as a bank of scalar
:class:`MarkovChain` objects: per-state stationary occupancy and the
per-stage switching rate must agree (with each other and with the analytic
values) on long paths.  Exact path equality across the two implementations
is not expected — they consume their generators in different layouts — but
the batch fast path must be stream-identical to its own step loop.
"""

import numpy as np
import pytest

from repro.mdp.markov_chain import (
    BatchMarkovChains,
    birth_death_chain,
    birth_death_transition,
    stationary_distribution,
)

PAPER_LEVELS = [700.0, 800.0, 900.0]


class TestConstruction:
    def test_shared_matrix_needs_num_chains(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="num_chains"):
            BatchMarkovChains(p, PAPER_LEVELS)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            BatchMarkovChains(np.eye(3) * 2.0, PAPER_LEVELS, num_chains=2)

    def test_rejects_bad_group_index(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="group index"):
            BatchMarkovChains(p[None], PAPER_LEVELS, groups=[0, 1])

    def test_rejects_mismatched_values(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="values"):
            BatchMarkovChains(p, [700.0, 800.0], num_chains=2)

    def test_rejects_bad_initial_states(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError):
            BatchMarkovChains(
                p, PAPER_LEVELS, num_chains=2, initial_states=[0, 5]
            )

    def test_rejects_non_square_transitions(self):
        with pytest.raises(ValueError, match="transitions must be"):
            BatchMarkovChains(np.full((3, 2), 0.5), PAPER_LEVELS, num_chains=2)

    def test_several_groups_need_groups(self):
        p = np.stack([birth_death_transition(3, 0.9)] * 2)
        with pytest.raises(ValueError, match="groups is required"):
            BatchMarkovChains(p, PAPER_LEVELS, num_chains=2)

    def test_rejects_zero_chains(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="num_chains must be"):
            BatchMarkovChains(p, PAPER_LEVELS, num_chains=0)

    def test_rejects_empty_groups(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="non-empty"):
            BatchMarkovChains(p, PAPER_LEVELS, groups=[])

    def test_num_chains_must_agree_with_groups(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="disagrees"):
            BatchMarkovChains(p, PAPER_LEVELS, num_chains=3, groups=[0, 0])

    def test_rejects_wrong_initial_states_shape(self):
        p = birth_death_transition(3, 0.9)
        with pytest.raises(ValueError, match="shape"):
            BatchMarkovChains(p, PAPER_LEVELS, num_chains=2, initial_states=[0])

    def test_birth_death_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least two values"):
            BatchMarkovChains.birth_death([700.0], num_chains=2)

    def test_explicit_initial_states_respected(self):
        batch = BatchMarkovChains(
            birth_death_transition(3, 0.9),
            PAPER_LEVELS,
            num_chains=3,
            rng=0,
            initial_states=[0, 1, 2],
        )
        assert np.array_equal(batch.state_indices, [0, 1, 2])
        assert np.array_equal(batch.state_values(), PAPER_LEVELS)

    def test_shapes_and_groups(self):
        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=7, rng=0)
        assert batch.num_chains == 7
        assert batch.num_states == 3
        assert batch.num_groups == 1
        assert batch.groups.shape == (7,)


class TestDynamics:
    def test_step_stays_in_range(self):
        batch = BatchMarkovChains.birth_death(
            PAPER_LEVELS, num_chains=5, stay_probability=0.3, rng=0
        )
        for _ in range(50):
            state = batch.step()
            assert state.min() >= 0 and state.max() < 3

    def test_seeded_reproducibility(self):
        a = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=4, rng=9)
        b = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=4, rng=9)
        for _ in range(30):
            assert np.array_equal(a.step(), b.step())

    def test_set_states(self):
        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=3, rng=0)
        batch.set_states([2, 2, 2])
        assert np.allclose(batch.state_values(), 900.0)
        with pytest.raises(ValueError):
            batch.set_states([0, 0, 3])
        with pytest.raises(ValueError, match="shape"):
            batch.set_states([0, 0])

    def test_fast_path_stream_identical_to_step_loop(self):
        """sample_value_paths must consume the generator exactly like a
        values/step loop, so the one-shot trace fast path is not a second
        process law."""
        loop = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=6, rng=21)
        shot = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=6, rng=21)
        T = 40
        expected = np.empty((T, 6))
        for t in range(T):
            expected[t] = loop.state_values()
            loop.step()
        got = shot.sample_value_paths(T)
        assert np.array_equal(got, expected)
        # Both banks end in the same state and keep agreeing afterwards.
        assert np.array_equal(loop.state_indices, shot.state_indices)
        assert np.array_equal(loop.step(), shot.step())

    def test_sample_value_paths_rejects_bad_length(self):
        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=2, rng=0)
        with pytest.raises(ValueError):
            batch.sample_value_paths(0)


class TestStatisticalEquivalence:
    STAY = 0.6  # faster mixing keeps the long-path test cheap

    def _scalar_occupancy_and_switch_rate(self, num_chains, length, seed):
        rng = np.random.default_rng(seed)
        chains = [
            birth_death_chain(PAPER_LEVELS, self.STAY, rng=int(s))
            for s in rng.integers(0, 2**63 - 1, size=num_chains)
        ]
        counts = np.zeros(3)
        switches = 0
        prev = np.array([c.state_index for c in chains])
        for _ in range(length):
            for c in chains:
                c.step()
            cur = np.array([c.state_index for c in chains])
            counts += np.bincount(cur, minlength=3)
            switches += int((cur != prev).sum())
            prev = cur
        return counts / counts.sum(), switches / (length * num_chains)

    def _batch_occupancy_and_switch_rate(self, num_chains, length, seed):
        batch = BatchMarkovChains.birth_death(
            PAPER_LEVELS, num_chains=num_chains, stay_probability=self.STAY,
            rng=seed,
        )
        counts = np.zeros(3)
        switches = 0
        prev = batch.state_indices
        for _ in range(length):
            cur = batch.step()
            counts += np.bincount(cur, minlength=3)
            switches += int((cur != prev).sum())
            prev = cur.copy()
        return counts / counts.sum(), switches / (length * num_chains)

    def test_occupancy_and_switch_rate_match_scalar_bank(self):
        num_chains, length = 20, 2500
        pi = stationary_distribution(birth_death_transition(3, self.STAY))
        occ_s, sw_s = self._scalar_occupancy_and_switch_rate(num_chains, length, 1)
        occ_b, sw_b = self._batch_occupancy_and_switch_rate(num_chains, length, 2)
        # Both implementations against the analytic stationary occupancy...
        assert np.abs(occ_s - pi).max() < 0.02
        assert np.abs(occ_b - pi).max() < 0.02
        # ...and against each other / the analytic switching rate (for the
        # birth-death family the per-stage switch probability is 1 - stay
        # from every state).
        assert abs(sw_s - (1 - self.STAY)) < 0.02
        assert abs(sw_b - (1 - self.STAY)) < 0.02
        assert np.abs(occ_s - occ_b).max() < 0.03
        assert abs(sw_s - sw_b) < 0.03

    def test_expected_values_match_scalar(self):
        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=4, rng=0)
        scalar = birth_death_chain(PAPER_LEVELS, 0.9, rng=0)
        assert np.allclose(
            batch.expected_state_values(), scalar.expected_state_value()
        )
        assert np.allclose(batch.minimum_values(), 700.0)


class TestToChains:
    def test_round_trip_preserves_law_and_state(self):
        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=5, rng=4)
        chains = batch.to_chains(rng=0)
        assert len(chains) == 5
        assert np.array_equal(
            [c.state_index for c in chains], batch.state_indices
        )
        for chain in chains:
            assert np.array_equal(chain.states, PAPER_LEVELS)
            assert np.allclose(
                chain.stationary_distribution(),
                batch.stationary_distributions()[0],
            )

    def test_symmetric_optimum_accepts_batch(self):
        from repro.mdp.symmetric import solve_symmetric_optimum

        batch = BatchMarkovChains.birth_death(PAPER_LEVELS, num_chains=3, rng=1)
        scalar = [birth_death_chain(PAPER_LEVELS, 0.9, rng=i) for i in range(3)]
        got = solve_symmetric_optimum(batch, num_peers=10).value
        expected = solve_symmetric_optimum(scalar, num_peers=10).value
        # Identical chain law -> identical stationary-weighted optimum.
        assert got == pytest.approx(expected, rel=1e-12)
