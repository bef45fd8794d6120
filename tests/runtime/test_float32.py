"""float32 opt-in: precision plumbing and equivalence tolerances.

The float32 banks halve the memory traffic of the regret update; the
price is ~1e-7 relative rounding per stage.  These tests pin the
documented tolerances: under *identical prescribed actions* a float32
population must track its float64 twin to ~1e-5 over hundreds of stages
(no divergence amplification — probabilities are recomputed from the
regret state each stage), survive its earlier renormalization floor on
long runs, and a full float32 system run must land within a small
relative band of the float64 run on aggregate metrics.
"""

import numpy as np
import pytest

from repro.core.population import LearnerPopulation
from repro.runtime import PeerStore, VectorizedStreamingSystem, bank_factory
from repro.sim import (
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.spec import ExperimentSpec, LearnerSpec, TopologySpec


class TestPopulationDtype:
    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            LearnerPopulation(4, 3, dtype=np.int32)
        with pytest.raises(ValueError, match="dtype"):
            LearnerPopulation(4, 3, dtype=np.float16)

    def test_storage_dtype_applied(self):
        pop = LearnerPopulation(5, 3, dtype=np.float32)
        assert pop.dtype == np.dtype(np.float32)
        assert pop.strategies().dtype == np.float32
        assert pop.regret_matrices().dtype == np.float64  # diagnostics upcast

    def test_ensure_capacity_preserves_dtype(self):
        pop = LearnerPopulation(4, 3, dtype=np.float32)
        pop.ensure_capacity(32)
        assert pop.strategies().dtype == np.float32
        assert pop.strategies().shape == (32, 3)

    def test_prescribed_path_matches_float64_within_tolerance(self):
        """Same seed, same actions/utilities: float32 strategies must track
        float64 to rounding tolerance, stage for stage."""
        rng = np.random.default_rng(0)
        N, H, T = 40, 8, 250
        p64 = LearnerPopulation(N, H, rng=1, u_max=900.0)
        p32 = LearnerPopulation(N, H, rng=1, u_max=900.0, dtype=np.float32)
        slots = np.arange(N)
        worst = 0.0
        for _ in range(T):
            acts = rng.integers(0, H, size=N)
            utils = rng.uniform(100.0, 900.0, size=N)
            p64.observe_slots(slots, acts, utils)
            p32.observe_slots(slots, acts, utils)
            worst = max(
                worst,
                float(np.abs(p64.strategies() - p32.strategies()).max()),
            )
        assert worst < 1e-5

    def test_long_run_crosses_renorm_floor_and_stays_sane(self):
        """1500 stages at eps=0.05 crosses the float32 renorm floor (~540
        stages) several times; strategies must stay finite, normalized and
        floored at delta/H exploration."""
        rng = np.random.default_rng(2)
        N, H = 20, 6
        pop = LearnerPopulation(
            N, H, rng=3, u_max=900.0, delta=0.1, dtype=np.float32
        )
        slots = np.arange(N)
        for _ in range(1500):
            acts = pop.act_slots(slots)
            utils = rng.uniform(100.0, 900.0, size=N)
            pop.observe_slots(slots, acts, utils)
        probs = pop.strategies()
        assert np.isfinite(probs).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-5
        assert probs.min() >= 0.1 / H - 1e-6


class TestPeerStoreDtype:
    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            PeerStore(dtype=np.int64)

    def test_rate_columns_use_dtype_timestamps_stay_float64(self):
        store = PeerStore(initial_capacity=8, dtype=np.float32)
        assert store.dtype == np.dtype(np.float32)
        assert store.demand.dtype == np.float32
        assert store.cumulative_rate.dtype == np.float32
        assert store.cumulative_deficit.dtype == np.float32
        assert store.joined_at.dtype == np.float64
        assert store.left_at.dtype == np.float64

    def test_grow_preserves_dtype(self):
        store = PeerStore(initial_capacity=2, dtype=np.float32)
        for _ in range(10):
            store.allocate(0, 100.0)
        assert store.capacity >= 10
        assert store.demand.dtype == np.float32
        assert store.cumulative_rate.dtype == np.float32


class TestBankDtype:
    def test_bank_factory_threads_dtype(self):
        factory = bank_factory("r2hs", u_max=900.0, dtype=np.float32)
        bank = factory([4], [np.random.default_rng(0)])
        assert bank.population_of(0).dtype == np.dtype(np.float32)

    def test_default_stays_float64(self):
        factory = bank_factory("rths", u_max=900.0)
        bank = factory([4], [np.random.default_rng(0)])
        assert bank.population_of(0).dtype == np.dtype(np.float64)


class TestSystemFloat32:
    def test_full_system_float32_close_to_float64(self):
        """Same recorded environment, same seed: the float32 system's
        aggregate welfare/server-load must land within a small relative
        band of the float64 run (trajectories may diverge action-by-action
        once a rounded probability flips a sampled choice)."""
        N, H, T = 200, 8, 120
        shared = record_capacity_trace(
            paper_bandwidth_process(H, rng=5, backend="vectorized"), T
        )
        topology = TopologySpec(num_peers=N, num_helpers=H, channel_bitrates=100.0)
        results = {}
        for dtype in (np.float64, np.float32):
            spec = ExperimentSpec(
                topology=topology, learner=LearnerSpec(dtype=np.dtype(dtype).name)
            )
            system = VectorizedStreamingSystem(
                spec,
                bank_factory("r2hs", u_max=900.0, dtype=dtype),
                rng=9,
                capacity_process=TraceCapacityProcess(shared.copy()),
            )
            trace = system.run(T)
            assert system.store.dtype == np.dtype(dtype)
            results[np.dtype(dtype).name] = (
                float(trace.welfare.mean()),
                float(trace.server_load.mean()),
            )
        w64, s64 = results["float64"]
        w32, s32 = results["float32"]
        assert np.isfinite([w32, s32]).all()
        assert abs(w32 - w64) / w64 < 0.02
        if s64 > 0:
            assert abs(s32 - s64) / max(s64, 1.0) < 0.25
