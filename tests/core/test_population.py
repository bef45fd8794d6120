"""Tests for the vectorized LearnerPopulation.

The decisive test feeds a population and a single R2HS learner the *same*
action/utility sequence through the update path and asserts the internal
state (S matrix, play probabilities) matches exactly — the batching is pure
arithmetic refactoring.
"""

import numpy as np
import pytest

from repro.core.population import LearnerPopulation
from repro.core.r2hs import R2HSLearner
from repro.core.sparse_population import TopKPopulation
from repro.game.repeated_game import StaticCapacities


class TestConstruction:
    def test_shapes(self):
        pop = LearnerPopulation(7, 3, rng=0)
        assert pop.num_peers == 7
        assert pop.num_helpers == 3
        assert pop.strategies().shape == (7, 3)
        assert np.allclose(pop.strategies(), 1 / 3)

    def test_rejects_single_helper(self):
        with pytest.raises(ValueError):
            LearnerPopulation(3, 1, rng=0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            LearnerPopulation(3, 2, delta=1.0, rng=0)

    @pytest.mark.parametrize("cls", [LearnerPopulation, TopKPopulation])
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_step_outside_unit_interval(self, cls, epsilon):
        """Both kernels take one constant step in (0, 1] and check it."""
        with pytest.raises(ValueError, match="epsilon"):
            cls(3, 4, epsilon=epsilon, rng=0)


class TestUpdateMatchesObjectLearner:
    def test_state_identical_to_r2hs_learner(self):
        """Drive both through identical (action, utility) sequences."""
        eps, delta, u_max = 0.1, 0.1, 900.0
        pop = LearnerPopulation(2, 3, epsilon=eps, delta=delta, u_max=u_max, rng=0)
        learners = [
            R2HSLearner(3, rng=0, epsilon=eps, delta=delta, u_max=u_max)
            for _ in range(2)
        ]
        env = np.random.default_rng(5)
        for _ in range(60):
            # Choose actions externally so both paths see identical inputs.
            actions = env.integers(0, 3, size=2)
            utils = env.uniform(100, 900, size=2)
            # Object learners must be fed while their strategy still matches
            # the population's rows (importance weights use the strategy).
            strategies = pop.strategies()
            for i, learner in enumerate(learners):
                assert np.allclose(learner.strategy(), strategies[i], atol=1e-12)
                learner.observe(int(actions[i]), float(utils[i]))
            pop.observe_all(actions, utils)
        for i, learner in enumerate(learners):
            assert np.allclose(
                pop.strategies()[i], learner.strategy(), atol=1e-10
            )
            assert np.allclose(
                pop.regret_matrices()[i], learner.regret_matrix(), atol=1e-10
            )

    def test_full_step_matches_object_learner(self):
        """eps = 1 must not degenerate: the full-forgetting step is the
        regression guard for the lazy-decay scale (eps = 1 would
        otherwise zero it and produce NaNs)."""
        pop = LearnerPopulation(
            2, 3, epsilon=1.0, delta=0.1, u_max=900.0, rng=0
        )
        learners = [
            R2HSLearner(3, rng=0, epsilon=1.0, delta=0.1, u_max=900.0)
            for _ in range(2)
        ]
        env = np.random.default_rng(8)
        for _ in range(40):
            actions = env.integers(0, 3, size=2)
            utils = env.uniform(100, 900, size=2)
            for i, learner in enumerate(learners):
                learner.observe(int(actions[i]), float(utils[i]))
            pop.observe_all(actions, utils)
        assert np.all(np.isfinite(pop.strategies()))
        for i, learner in enumerate(learners):
            assert np.allclose(
                pop.strategies()[i], learner.strategy(), atol=1e-10
            )
            assert np.allclose(
                pop.regret_matrices()[i], learner.regret_matrix(), atol=1e-10
            )

    def test_observe_all_validates_shapes(self):
        pop = LearnerPopulation(3, 2, rng=0)
        with pytest.raises(ValueError):
            pop.observe_all(np.zeros(2, dtype=int), np.zeros(3))

    def test_observe_all_validates_action_range(self):
        pop = LearnerPopulation(2, 2, rng=0)
        with pytest.raises(ValueError):
            pop.observe_all(np.array([0, 5]), np.zeros(2))


class TestActAll:
    def test_actions_in_range(self):
        pop = LearnerPopulation(20, 4, rng=1)
        actions = pop.act_all()
        assert actions.shape == (20,)
        assert actions.min() >= 0 and actions.max() < 4

    def test_initial_actions_roughly_uniform(self):
        pop = LearnerPopulation(4000, 4, rng=2)
        counts = np.bincount(pop.act_all(), minlength=4)
        assert np.allclose(counts / 4000, 0.25, atol=0.03)


class TestRun:
    def test_trajectory_shapes(self):
        pop = LearnerPopulation(6, 3, rng=3, u_max=900.0)
        trajectory = pop.run(StaticCapacities([700.0, 800.0, 900.0]), 40)
        assert trajectory.actions.shape == (40, 6)
        assert trajectory.loads.shape == (40, 3)

    def test_loads_sum_to_population(self):
        pop = LearnerPopulation(6, 3, rng=3, u_max=900.0)
        trajectory = pop.run(StaticCapacities([700.0, 800.0, 900.0]), 20)
        assert np.all(trajectory.loads.sum(axis=1) == 6)

    def test_process_size_validated(self):
        pop = LearnerPopulation(6, 3, rng=3)
        with pytest.raises(ValueError):
            pop.run(StaticCapacities([700.0, 800.0]), 10)

    def test_callback_invoked(self):
        pop = LearnerPopulation(4, 2, rng=4, u_max=900.0)
        stages = []
        pop.run(
            StaticCapacities([800.0, 800.0]),
            15,
            stage_callback=lambda t, u: stages.append(t),
        )
        assert stages == list(range(15))

    def test_worst_player_regret_zero_before_any_stage(self):
        pop = LearnerPopulation(3, 2, rng=0)
        assert pop.worst_player_regret() == 0.0

    def test_learning_avoids_the_weak_helper(self):
        """On very unequal static helpers the learned load on the weak
        helper falls far below the uniform-random level (N/2 = 3).

        mu controls switching eagerness: the theory-compliant default
        (2 * (m-1) in normalized units) converges slowly on strongly
        asymmetric instances, so this test uses a smaller mu -- see the
        default_mu docstring for the trade-off.
        """
        caps = [900.0, 100.0]
        pop = LearnerPopulation(
            6, 2, rng=5, epsilon=0.01, delta=0.1, mu=0.25, u_max=900.0
        )
        trajectory = pop.run(StaticCapacities(caps), 3000)
        tail_welfare = trajectory.welfare[-500:].mean()
        weak_load = trajectory.loads[-500:, 1].mean()
        assert weak_load < 1.6  # uniform random would hold it at 3.0
        assert tail_welfare > 940.0


class TestSlotBounds:
    """A slot outside ``[0, N)`` is refused before any state changes."""

    @staticmethod
    def warmed(kind):
        if kind == "dense":
            pop = LearnerPopulation(8, 4, u_max=900.0, rng=0)
        else:
            pop = TopKPopulation(8, 10, k=3, u_max=900.0, rng=0, reselect_every=2)
        slots = np.arange(8)
        for _ in range(5):
            actions = pop.act_slots(slots)
            pop.observe_slots(slots, actions, np.linspace(100.0, 800.0, 8))
        return pop

    @staticmethod
    def state(pop):
        """Every array the population holds (per-slot rows, blocks and
        the play EWMA) as bytes, plus its generator state."""
        arrays = {
            name: value.tobytes()
            for name, value in vars(pop).items()
            if isinstance(value, np.ndarray)
        }
        return arrays, pop._rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["dense", "topk"])
    @pytest.mark.parametrize("bad", [-1, 8], ids=["negative", "past-capacity"])
    @pytest.mark.parametrize("call", ["act", "act-with-draws", "observe"])
    def test_out_of_range_slot_raises_and_changes_nothing(self, kind, bad, call):
        pop = self.warmed(kind)
        before = self.state(pop)
        slots = np.array([3, bad])
        with pytest.raises(IndexError, match=r"\[0, 8\)"):
            if call == "act":
                pop.act_slots(slots)
            elif call == "act-with-draws":
                pop.act_slots(slots, draws=np.array([0.5, 0.5]))
            else:
                pop.observe_slots(slots, np.array([0, 1]), np.array([100.0, 200.0]))
        assert self.state(pop) == before
