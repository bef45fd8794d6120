"""Tests for the parameter-sweep harness."""

import pytest

from repro.analysis.sweeps import (
    SweepCell,
    SweepResult,
    default_metrics,
    sweep_environment_speed,
)


class TestSweepEnvironmentSpeed:
    def test_one_cell_per_probability(self):
        result = sweep_environment_speed(
            [0.9, 0.5], num_peers=4, num_helpers=2, num_stages=100, rng=0
        )
        assert len(result.cells) == 2
        stays = [c.parameters["stay_probability"] for c in result.cells]
        assert stays == [0.9, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_environment_speed([], 4, 2, 50)


class TestSweepResult:
    def _result(self):
        return sweep_environment_speed(
            [0.9, 0.5], num_peers=4, num_helpers=2, num_stages=100, rng=4
        )

    def test_to_table_renders(self):
        table = self._result().to_table()
        assert "stay_probability" in table
        assert "ce_regret" in table

    def test_best(self):
        result = self._result()
        best = result.best("tail_welfare", maximize=True)
        worst = result.best("tail_welfare", maximize=False)
        assert best.metrics["tail_welfare"] >= worst.metrics["tail_welfare"]

    def test_column(self):
        values = self._result().column("load_jain")
        assert values.shape == (2,)

    def test_empty_result_raises(self):
        empty = SweepResult()
        with pytest.raises(ValueError):
            empty.to_table()
        with pytest.raises(ValueError):
            empty.best("x")

    def test_default_metrics_keys(self):
        assert set(default_metrics()) == {"tail_welfare", "ce_regret", "load_jain"}


class _Failure:
    """Minimal stand-in for a SweepFailure record."""

    def __init__(self, cell_index, params):
        self.cell_index = cell_index
        self.params = params

    def describe(self):
        return f"cell {self.cell_index} failed"


class TestToTableFailureHoles:
    def _holed(self):
        cell = SweepCell(
            parameters={"epsilon": 0.05, "replication": 0},
            metrics={"tail_welfare": 1.0},
        )
        result = SweepResult(cells=[cell, None])
        result.failures.append(
            _Failure(1, {"epsilon": 0.2, "replication": 1})
        )
        return result

    def test_failed_row_shows_its_params_inline(self):
        table = self._holed().to_table()
        failed_row = next(
            line for line in table.splitlines() if "FAILED" in line
        )
        assert "0.2" in failed_row
        assert "1" in failed_row

    def test_failure_param_only_columns_are_included(self):
        # The failing cell carries a param no completed cell has; it
        # must still get a column instead of being dropped.
        result = SweepResult(
            cells=[SweepCell(parameters={"a": 1}, metrics={"m": 0.0}), None]
        )
        result.failures.append(_Failure(1, {"a": 2, "injected": "yes"}))
        table = result.to_table()
        assert "injected" in table
        assert "yes" in table

    def test_all_cells_failed_still_renders_params(self):
        result = SweepResult(cells=[None, None])
        result.failures.append(_Failure(0, {"epsilon": 0.05}))
        result.failures.append(_Failure(1, {"epsilon": 0.2}))
        table = result.to_table()
        assert "epsilon" in table
        assert "0.05" in table and "0.2" in table
        assert table.count("FAILED") == 2

    def test_failure_without_params_renders_placeholders(self):
        result = SweepResult(
            cells=[SweepCell(parameters={"a": 1}, metrics={"m": 0.0}), None]
        )
        result.failures.append(_Failure(1, {}))
        table = result.to_table()
        assert "?" in table
        assert "FAILED" in table
