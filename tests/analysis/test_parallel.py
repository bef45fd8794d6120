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
                assert a.metrics[name] == b.metrics[name]

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

    def test_one_worker_runs_custom_metrics_inline(self):
        result = sweep_learner_parameters(
            {"epsilon": [0.05]},
            num_peers=4,
            num_helpers=3,
            num_stages=10,
            metrics={"stages": lambda t: float(t.num_stages)},
            runner=ParallelRunner(workers=1),
        )
        assert result.cells[0].metrics == {"stages": 10.0}


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
                assert a.metrics[name] == b.metrics[name]
