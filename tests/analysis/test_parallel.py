"""Tests for the parallel experiment executor."""

import numpy as np
import pytest

from repro.analysis.parallel import ParallelRunner
from repro.analysis.sweeps import sweep_learner_parameters


def echo_cell(params, seed):
    """Module-level (picklable) cell: deterministic in (params, seed)."""
    return {"value": float(params["x"]) * 10.0, "seed": float(seed % 1000)}


def simulate_cell(params, seed):
    """A tiny real simulation cell exercising the rng plumbing."""
    rng = np.random.default_rng(seed)
    return {"draw": float(rng.random()), "x": float(params["x"])}


class TestParallelRunner:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_map_preserves_order(self):
        runner = ParallelRunner(workers=1)
        cells = runner.map_cells(
            echo_cell, [{"x": i} for i in range(7)], rng=0
        )
        assert [c.metrics["value"] for c in cells] == [10.0 * i for i in range(7)]
        assert [c.parameters["x"] for c in cells] == list(range(7))

    def test_seeds_deterministic_and_distinct(self):
        runner = ParallelRunner(workers=1)
        a = runner.map_cells(echo_cell, [{"x": 0}] * 4, rng=123)
        b = runner.map_cells(echo_cell, [{"x": 0}] * 4, rng=123)
        assert [c.metrics["seed"] for c in a] == [c.metrics["seed"] for c in b]
        assert len({c.metrics["seed"] for c in a}) > 1

    def test_worker_count_does_not_change_results(self):
        serial = ParallelRunner(workers=1).map_cells(
            simulate_cell, [{"x": i} for i in range(6)], rng=7
        )
        parallel = ParallelRunner(workers=3).map_cells(
            simulate_cell, [{"x": i} for i in range(6)], rng=7
        )
        for a, b in zip(serial, parallel):
            assert a.parameters == b.parameters
            assert a.metrics == b.metrics

    def test_run_grid_cross_product(self):
        runner = ParallelRunner(workers=1)
        result = runner.run_grid(
            {"x": [1, 2, 3]}, echo_cell, rng=0
        )
        assert result.column("value").tolist() == [10.0, 20.0, 30.0]
        assert "value" in result.to_table()

    def test_run_replications(self):
        runner = ParallelRunner(workers=1)
        cells = runner.run_replications(simulate_cell, {"x": 5}, 4, rng=1)
        assert len(cells) == 4
        assert all(c.parameters["x"] == 5 for c in cells)
        assert [c.parameters["replication"] for c in cells] == [0, 1, 2, 3]
        draws = [c.metrics["draw"] for c in cells]
        assert len(set(draws)) == 4  # distinct seeds


class TestSweepIntegration:
    def test_parallel_sweep_matches_serial(self):
        grid = {"epsilon": [0.05, 0.1]}
        kwargs = dict(num_peers=8, num_helpers=3, num_stages=60, rng=42)
        serial = sweep_learner_parameters(grid, **kwargs)
        fanned = sweep_learner_parameters(
            grid, runner=ParallelRunner(workers=2), **kwargs
        )
        for a, b in zip(serial.cells, fanned.cells):
            assert dict(a.parameters) == dict(b.parameters)
            for name in a.metrics:
                assert a.metrics[name] == pytest.approx(b.metrics[name])

    def test_parallel_sweep_rejects_custom_metrics(self):
        with pytest.raises(ValueError):
            sweep_learner_parameters(
                {"epsilon": [0.05]},
                num_peers=4,
                num_helpers=3,
                num_stages=10,
                metrics={"zero": lambda t: 0.0},
                runner=ParallelRunner(workers=2),
            )


def trace_sum_cell(params, seed):
    """Module-level cell loading a shared-array handle inside the worker."""
    arr = params["trace"].load()
    return {"total": float(arr.sum()), "seed_mod": float(seed % 7)}


class TestSharedArrayHandle:
    @pytest.mark.parametrize("mode", ["shm", "file"])
    def test_roundtrip_through_pickle(self, mode):
        import pickle

        from repro.analysis.parallel import share_array

        arr = np.arange(24, dtype=float).reshape(6, 4)
        with share_array(arr, mode=mode) as handle:
            clone = pickle.loads(pickle.dumps(handle))
            got = clone.load()
            assert np.array_equal(np.asarray(got), arr)
            assert handle.shape == (6, 4)
            clone.close()

    def test_handle_is_small_on_the_wire(self):
        import pickle

        from repro.analysis.parallel import share_array

        arr = np.zeros((500, 200))
        with share_array(arr, mode="auto") as handle:
            assert len(pickle.dumps(handle)) < 1024  # metadata, not the array

    def test_file_cleanup_removes_backing(self):
        import os

        from repro.analysis.parallel import share_array

        handle = share_array(np.ones((3, 3)), mode="file")
        path = handle._path
        assert os.path.exists(path)
        handle.cleanup()
        assert not os.path.exists(path)
        handle.cleanup()  # idempotent

    def test_shm_cleanup_releases_segment(self):
        from multiprocessing import shared_memory

        from repro.analysis.parallel import share_array

        handle = share_array(np.ones((3, 3)), mode="shm")
        name = handle._shm_name
        handle.cleanup()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_bad_mode_rejected(self):
        from repro.analysis.parallel import share_array

        with pytest.raises(ValueError, match="mode"):
            share_array(np.ones(3), mode="carrier-pigeon")

    @pytest.mark.parametrize("mode", ["shm", "file"])
    def test_workers_resolve_without_pickling_the_array(self, mode):
        from repro.analysis.parallel import share_array

        arr = np.random.default_rng(0).uniform(size=(40, 5))
        with share_array(arr, mode=mode) as handle:
            runner = ParallelRunner(workers=2)
            cells = runner.map_cells(
                trace_sum_cell, [{"trace": handle, "i": i} for i in range(4)],
                rng=0,
            )
        expected = float(arr.sum())
        assert all(abs(c.metrics["total"] - expected) < 1e-9 for c in cells)


class TestSweepTraceHandoff:
    def test_parallel_matches_serial(self):
        grid = {"epsilon": [0.02, 0.08]}
        serial = sweep_learner_parameters(grid, 8, 4, 50, rng=11)
        parallel = sweep_learner_parameters(
            grid, 8, 4, 50, rng=11, runner=ParallelRunner(workers=2),
        )
        for a, b in zip(serial.cells, parallel.cells):
            assert a.parameters == b.parameters
            for name in a.metrics:
                assert a.metrics[name] == pytest.approx(b.metrics[name], abs=1e-12)

    @pytest.mark.parametrize("mode", ["shm", "file"])
    def test_loaded_views_are_read_only(self, mode):
        from repro.analysis.parallel import share_array

        arr = np.ones((4, 4))
        with share_array(arr, mode=mode) as handle:
            view = handle.load()
            with pytest.raises(ValueError):
                view[0, 0] = 7.0
        arr[0, 0] = 7.0  # the caller's own array stays writable
