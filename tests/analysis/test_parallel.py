"""Tests for the parallel experiment executor."""

import numpy as np
import pytest

from repro.analysis.parallel import ParallelRunner


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
