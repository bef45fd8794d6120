"""Per-cell result arrays returning from workers through their pipes."""

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.analysis.parallel import ParallelRunner


def array_cell(params, seed):
    """Module-level cell returning one large and one small array metric."""
    rng = np.random.default_rng(seed)
    big = np.full((64, 64), float(params["x"]))  # 32 KiB
    small = np.arange(4, dtype=float)  # 32 B
    return {
        "x": float(params["x"]),
        "big_series": big,
        "small_series": small,
        "draw": float(rng.random()),
    }


class TestResultArrayHandoff:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_receive_plain_arrays(self, workers):
        runner = ParallelRunner(workers=workers)
        cells = runner.map_cells(array_cell, [{"x": i} for i in range(4)], rng=0)
        for i, cell in enumerate(cells):
            big = cell.metrics["big_series"]
            assert isinstance(big, np.ndarray)
            assert big.shape == (64, 64)
            assert np.all(big == float(i))
            assert np.array_equal(
                cell.metrics["small_series"], np.arange(4, dtype=float)
            )

    def test_worker_count_does_not_change_array_results(self):
        serial = ParallelRunner(workers=1).map_cells(
            array_cell, [{"x": i} for i in range(3)], rng=9
        )
        fanned = ParallelRunner(workers=3).map_cells(
            array_cell, [{"x": i} for i in range(3)], rng=9
        )
        for a, b in zip(serial, fanned):
            assert a.metrics["draw"] == b.metrics["draw"]
            assert np.array_equal(a.metrics["big_series"], b.metrics["big_series"])

    def test_results_stay_valid_after_pool_teardown(self):
        """The arrays map_cells returns are parent-owned: they must not
        reference storage that died with the workers."""
        runner = ParallelRunner(workers=2)
        cells = runner.map_cells(array_cell, [{"x": 7}] * 2, rng=0)
        del runner
        arr = cells[0].metrics["big_series"]
        assert arr.sum() == pytest.approx(7.0 * 64 * 64)
        arr += 1.0  # parent-owned memory: writable, no shared backing


def exploding_cell(params, seed):
    """Cell that fails on one parameter set, succeeds (with a big array)
    on the rest."""
    if params["x"] == 1:
        raise RuntimeError("boom on cell 1")
    return {"x": float(params["x"]), "big": np.full((64, 64), float(params["x"]))}


class TestWorkerFailureDoesNotLeak:
    def test_failure_surfaces_after_siblings_are_released(self):
        def backings():
            return set(glob.glob("/dev/shm/psm_*")) | set(
                glob.glob(os.path.join(tempfile.gettempdir(), "repro-trace-*"))
            )

        before = backings()
        runner = ParallelRunner(workers=2)
        with pytest.raises(RuntimeError, match="boom on cell 1"):
            runner.map_cells(exploding_cell, [{"x": i} for i in range(4)], rng=0)
        # The three successful cells' arrays came home through their
        # pipes: no shared segment or backing file outlives the sweep.
        assert backings() <= before

    def test_inline_path_raises_the_original_exception(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(RuntimeError, match="boom on cell 1"):
            runner.map_cells(exploding_cell, [{"x": i} for i in range(2)], rng=0)


def spec_series_cell_guard():  # pragma: no cover - documentation anchor
    """See tests/spec/test_spec_roundtrip.py for spec sweeps that return
    welfare_series arrays from their workers."""


class TestSpecSweepSeriesThroughWorkers:
    def test_welfare_series_returns_from_workers(self):
        from repro.spec import ExperimentSpec, MetricsSpec, SweepSpec, TopologySpec

        spec = ExperimentSpec(
            rounds=1200,  # 1200 rounds -> a 9.6 KiB series per cell
            topology=TopologySpec(num_peers=8, num_helpers=4, channel_bitrates=100.0),
            metrics=MetricsSpec(metrics=("mean_welfare", "welfare_series")),
        )
        result = spec.sweep(
            workers=2, sweep=SweepSpec(grid={"learner.epsilon": [0.02, 0.1]})
        )
        for cell in result.cells:
            series = cell.metrics["welfare_series"]
            assert isinstance(series, np.ndarray)
            assert series.shape == (1200,)
            assert series.mean() == pytest.approx(
                cell.metrics["mean_welfare"]
            )
