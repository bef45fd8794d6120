"""CLI integration for fault tolerance: execution overrides, --store/--resume,
the sweep subcommand, structured failure reporting, and `repro store`."""

import io
import json

import pytest

from repro.cli import main
from repro.spec import ExperimentSpec
from repro.store import ResultsStore
from repro.util.rng import as_generator, derive_seed


def write_spec(tmp_path, **overrides):
    data = {
        "name": "cli-store-test",
        "backend": "vectorized",
        "rounds": 5,
        "seed": 3,
        "topology": {"num_peers": 30, "num_helpers": 3, "channel_bitrates": 100.0},
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


def bad_grid_spec(tmp_path):
    """A sweep whose second cell fails deterministically (epsilon must be
    in (0, 1], so the override raises inside the cell)."""
    return write_spec(
        tmp_path, sweep={"grid": {"learner.epsilon": [0.05, -1.0]}}
    )


class TestExecutionFlags:
    def test_flags_compile_into_execution_section(self):
        out = io.StringIO()
        code = main(
            ["run", "--set", "topology.num_peers=10",
             "--set", "topology.num_helpers=3",
             "--set", "execution.max_retries=2",
             "--set", "execution.cell_timeout=30.0",
             "--set", "execution.heartbeat_interval=0.5",
             "--set", "execution.on_failure=record",
             "--dump-spec"],
            out=out,
        )
        assert code == 0
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.execution.max_retries == 2
        assert spec.execution.cell_timeout == 30.0
        assert spec.execution.heartbeat_interval == 0.5
        assert spec.execution.on_failure == "record"
        assert spec.execution.supervised

    def test_flags_absent_leave_defaults(self):
        out = io.StringIO()
        main(
            ["run", "--set", "topology.num_peers=10",
             "--set", "topology.num_helpers=3", "--dump-spec"],
            out=out,
        )
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.execution.max_retries == 0
        assert not spec.execution.supervised

    def test_bad_on_failure_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--set", "topology.num_peers=10",
                 "--set", "topology.num_helpers=3",
                 "--set", "execution.on_failure=explode"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2


class TestRunWithStore:
    def test_run_commits_cells_and_resume_reuses_them(self, tmp_path):
        path = write_spec(tmp_path)
        store_dir = tmp_path / "store"
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--replications", "2",
             "--store", str(store_dir)],
            out=out,
        )
        assert code == 0
        first = out.getvalue()
        assert "mean_welfare" in first
        store = ResultsStore(store_dir, create=False)
        assert len(store) == 2

        # Resume: same spec, same store — everything served from cache,
        # nothing new committed, identical metric table.
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--replications", "2",
             "--store", str(store_dir), "--resume"],
            out=out,
        )
        assert code == 0
        assert out.getvalue() == first
        assert len(ResultsStore(store_dir, create=False)) == 2

    def test_resume_requires_store(self, tmp_path):
        path = write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(path), "--resume"], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_resume_requires_existing_store_dir(self, tmp_path):
        path = write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--spec", str(path),
                 "--store", str(tmp_path / "absent"), "--resume"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2


class TestSweepCommand:
    def test_sweep_prints_header_and_table(self, tmp_path):
        path = write_spec(
            tmp_path, sweep={"grid": {"learner.epsilon": [0.05, 0.1]}}
        )
        out = io.StringIO()
        code = main(["sweep", "--spec", str(path)], out=out)
        assert code == 0
        text = out.getvalue()
        spec = ExperimentSpec.from_json(path.read_text())
        assert f"sweep: spec={spec.result_digest()} cells=2" in text
        assert "learner.epsilon" in text

    def test_sweep_replications_flag(self, tmp_path):
        path = write_spec(tmp_path)
        out = io.StringIO()
        code = main(
            ["sweep", "--spec", str(path), "--replications", "3"], out=out
        )
        assert code == 0
        assert "cells=3" in out.getvalue()

    def test_nothing_to_sweep_rejected(self, tmp_path):
        path = write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--spec", str(path)], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_sweep_with_store_resumes(self, tmp_path):
        path = write_spec(
            tmp_path, sweep={"grid": {"learner.epsilon": [0.05, 0.1]}}
        )
        store_dir = tmp_path / "store"
        out = io.StringIO()
        assert main(
            ["sweep", "--spec", str(path), "--store", str(store_dir)], out=out
        ) == 0
        first = out.getvalue()
        assert f"store={store_dir}" in first
        out = io.StringIO()
        assert main(
            ["sweep", "--spec", str(path), "--store", str(store_dir),
             "--resume"],
            out=out,
        ) == 0
        assert out.getvalue() == first


class TestSweepFailureReporting:
    def test_failure_exits_one_with_structured_line(self, tmp_path, capsys):
        path = bad_grid_spec(tmp_path)
        code = main(["sweep", "--spec", str(path)], out=io.StringIO())
        assert code == 1
        err = capsys.readouterr().err
        spec = ExperimentSpec.from_json(path.read_text())
        # One structured line naming spec digest + cell index + params +
        # the cell's seed (enough to re-run it) — not a worker traceback.
        parent = as_generator(spec.seed)
        seeds = [derive_seed(parent) for _ in range(2)]
        assert "error: sweep cell 1 failed" in err
        assert spec.result_digest() in err
        assert "learner.epsilon" in err
        assert f"(seed {seeds[1]})" in err
        assert "Traceback" not in err

    def test_debug_log_level_restores_traceback(self, tmp_path, capsys):
        path = bad_grid_spec(tmp_path)
        code = main(
            ["--log-level", "debug", "sweep", "--spec", str(path)],
            out=io.StringIO(),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "error: sweep cell 1 failed" in err

    def test_on_failure_record_completes_with_warning(self, tmp_path, capsys):
        path = bad_grid_spec(tmp_path)
        out = io.StringIO()
        code = main(
            ["sweep", "--spec", str(path), "--set", "execution.on_failure=record"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "warning: sweep cell 1 failed" in text
        assert "FAILED" in text  # the table marks the hole
        assert "0.05" in text  # the healthy cell still reported

    def test_all_cells_failed_exits_one(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, sweep={"grid": {"learner.epsilon": [-1.0, -2.0]}}
        )
        code = main(
            ["sweep", "--spec", str(path), "--set", "execution.on_failure=record"],
            out=io.StringIO(),
        )
        assert code == 1
        assert "every sweep cell failed" in capsys.readouterr().err


class TestStoreCommand:
    def _populated_store(self, tmp_path):
        path = write_spec(tmp_path)
        store_dir = tmp_path / "store"
        assert main(
            ["run", "--spec", str(path), "--replications", "2",
             "--store", str(store_dir)],
            out=io.StringIO(),
        ) == 0
        return store_dir

    def test_ls_lists_entries(self, tmp_path):
        store_dir = self._populated_store(tmp_path)
        out = io.StringIO()
        assert main(["store", "ls", str(store_dir)], out=out) == 0
        text = out.getvalue()
        assert "2 entries" in text
        assert "replication" in text  # params are shown

    def test_verify_clean_store(self, tmp_path):
        store_dir = self._populated_store(tmp_path)
        out = io.StringIO()
        assert main(["store", "verify", str(store_dir)], out=out) == 0
        assert "checked=2 ok=2 corrupt=0" in out.getvalue()

    def test_verify_corrupt_store_exits_one(self, tmp_path):
        store_dir = self._populated_store(tmp_path)
        entry_path = next((store_dir / "objects").rglob("entry.json"))
        entry = json.loads(entry_path.read_text())
        entry["scalars"][next(iter(entry["scalars"]))] = 1e9  # tamper
        entry_path.write_text(json.dumps(entry))
        out = io.StringIO()
        assert main(["store", "verify", str(store_dir)], out=out) == 1
        text = out.getvalue()
        assert "corrupt:" in text
        assert "quarantined=1" in text

    def test_gc_reports_reclaimed(self, tmp_path):
        store_dir = self._populated_store(tmp_path)
        out = io.StringIO()
        assert main(["store", "gc", str(store_dir)], out=out) == 0
        assert "gc: tmp_removed=0" in out.getvalue()

    def test_gc_dry_run_previews_without_removing(self, tmp_path):
        store_dir = self._populated_store(tmp_path)
        torn = store_dir / "tmp" / "feedface"
        torn.mkdir(parents=True)
        (torn / "x.npy").write_bytes(b"x" * 10)
        out = io.StringIO()
        assert main(["store", "gc", str(store_dir), "--dry-run"], out=out) == 0
        assert "gc (dry-run): would remove tmp_removed=1" in out.getvalue()
        assert torn.exists()  # preview only
        out = io.StringIO()
        assert main(["store", "gc", str(store_dir)], out=out) == 0
        assert "gc: tmp_removed=1" in out.getvalue()
        assert not torn.exists()

    def test_missing_store_dir_exits_one(self, tmp_path, capsys):
        assert main(
            ["store", "ls", str(tmp_path / "absent")], out=io.StringIO()
        ) == 1
        assert "error:" in capsys.readouterr().err
