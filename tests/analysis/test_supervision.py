"""Tests for fault-tolerant sweep execution.

Worker crashes, hangs, timeouts, retry/backoff, failure records, the
results-store resume path, and results that leave nothing behind — all
driven through the chaos harness (:mod:`repro.analysis.chaos`) so each
fault injects exactly once and the retried cell must come back
bit-identical to a clean run.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.chaos import ChaosPlan
from repro.analysis.parallel import ParallelRunner
from repro.analysis.supervision import (
    CellAttempt,
    SweepError,
    SweepFailure,
    Supervisor,
)
from repro.spec.model import ExecutionSpec
from repro.store import ResultsStore, cell_digest


def rng_cell(params, seed):
    """Deterministic in (params, seed); small scalar payload."""
    rng = np.random.default_rng(seed)
    return {"draw": float(rng.random()), "rep": float(params["replication"])}


def array_cell(params, seed):
    """Carries a 32 KiB array home with its scalar."""
    rng = np.random.default_rng(seed)
    return {"draw": float(rng.random()), "trace": rng.random(4096)}


def error_cell(params, seed):
    if params["replication"] == 1:
        raise ValueError("deterministic cell bug")
    return rng_cell(params, seed)


def zero_division_cell(params, seed):
    if params["replication"] == 1:
        return {"draw": 1 / 0}
    return rng_cell(params, seed)


def stop_self_cell(params, seed):
    """Freeze the whole worker (heartbeat thread included) once."""
    if params["replication"] == 1:
        try:
            with open(params["_marker"], "x"):
                os.kill(os.getpid(), signal.SIGSTOP)
        except FileExistsError:
            pass
    return rng_cell(params, seed)


def exit_on_one_cell(params, seed):
    """Kills its own worker on ``i == 1``; the other cells leave a marker."""
    if params["i"] == 1:
        os._exit(3)
    Path(params["dir"], f"ran-{params['i']}").touch()
    return {"i": float(params["i"])}


def _sets(n):
    return [{"replication": i} for i in range(n)]


#: Runs a 4-cell, 2-worker sweep of :func:`exit_on_one_cell` with the
#: default execution policy and no store; prints the raised
#: ``SweepError``'s cell index and attempt outcomes as JSON.
DYING_WORKER_SWEEP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_supervision import exit_on_one_cell
from repro.analysis.parallel import ParallelRunner
from repro.analysis.supervision import SweepError
sets = [{"i": i, "dir": sys.argv[2]} for i in range(4)]
try:
    ParallelRunner(workers=2).map_cells(exit_on_one_cell, sets, rng=0)
except SweepError as exc:
    outcomes = [attempt.outcome for attempt in exc.failure.attempts]
    print(json.dumps([exc.failure.cell_index, outcomes]))
else:
    print(json.dumps(None))
"""


class TestDyingWorker:
    def test_dying_worker_fails_the_sweep_instead_of_hanging(self, tmp_path):
        """A worker that dies mid-cell fails its cell with one SweepError;
        it must never wait forever on a result that cannot come.  The
        sweep runs in a child process so that a hang fails this test
        after 60 s instead of stalling the suite."""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(here.parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", DYING_WORKER_SWEEP, str(here), str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a sweep with a dying worker hung for 60 s")
        assert proc.returncode == 0, err
        cell_index, outcomes = json.loads(out)
        assert cell_index == 1
        assert outcomes[-1] == "crash"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ran-0", "ran-2", "ran-3",
        ]


class TestRetryAfterCrash:
    def test_crashed_cell_retries_bit_identical(self, tmp_path):
        runner = ParallelRunner(workers=3)
        clean = runner.map_cells(rng_cell, _sets(5), rng=7)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(1).crash_cell(3)
        retried = runner.map_cells(
            plan.wrap(rng_cell), _sets(5), rng=7,
            execution=ExecutionSpec(max_retries=2),
        )
        assert [c.metrics for c in retried] == [c.metrics for c in clean]

    def test_crashed_cell_with_shm_result_retries_bit_identical(
        self, tmp_path
    ):
        runner = ParallelRunner(workers=3)
        clean = runner.map_cells(array_cell, _sets(4), rng=11)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(2)
        retried = runner.map_cells(
            plan.wrap(array_cell), _sets(4), rng=11,
            execution=ExecutionSpec(max_retries=1),
        )
        for a, b in zip(retried, clean):
            assert a.metrics["draw"] == b.metrics["draw"]
            np.testing.assert_array_equal(
                a.metrics["trace"], b.metrics["trace"]
            )

    def test_crash_after_sequence_position(self, tmp_path):
        runner = ParallelRunner(workers=2)
        clean = runner.map_cells(rng_cell, _sets(4), rng=3)
        plan = ChaosPlan(tmp_path / "chaos").crash_after(1)
        retried = runner.map_cells(
            plan.wrap(rng_cell), _sets(4), rng=3,
            execution=ExecutionSpec(max_retries=1),
        )
        assert [c.metrics for c in retried] == [c.metrics for c in clean]

    def test_hang_caught_by_cell_timeout(self, tmp_path):
        runner = ParallelRunner(workers=2)
        clean = runner.map_cells(rng_cell, _sets(3), rng=5)
        plan = ChaosPlan(tmp_path / "chaos").hang_cell(1, seconds=300)
        retried = runner.map_cells(
            plan.wrap(rng_cell), _sets(3), rng=5,
            execution=ExecutionSpec(max_retries=1, cell_timeout=3.0),
        )
        assert [c.metrics for c in retried] == [c.metrics for c in clean]

    def test_frozen_worker_caught_by_heartbeat(self, tmp_path):
        # SIGSTOP freezes even the heartbeat thread, so only the
        # supervisor-side staleness check can catch it.
        runner = ParallelRunner(workers=2)
        sets = [
            dict(s, _marker=str(tmp_path / "frozen-marker"))
            for s in _sets(3)
        ]
        clean = ParallelRunner(workers=2).map_cells(
            rng_cell, _sets(3), rng=9
        )
        retried = runner.map_cells(
            stop_self_cell, sets, rng=9,
            execution=ExecutionSpec(max_retries=1, heartbeat_interval=0.2),
        )
        assert [c.metrics["draw"] for c in retried] == [
            c.metrics["draw"] for c in clean
        ]


class TestFailureRecords:
    def test_exhausted_retries_raise_structured_error(self, tmp_path):
        runner = ParallelRunner(workers=2)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(0, times=10)
        with pytest.raises(SweepError) as err:
            runner.map_cells(
                plan.wrap(rng_cell), _sets(3), rng=1,
                execution=ExecutionSpec(max_retries=1),
                spec_digest="feedbeefcafe",
            )
        failure = err.value.failure
        assert failure.cell_index == 0
        assert failure.spec_digest == "feedbeefcafe"
        assert failure.params == {"replication": 0}
        assert len(failure.attempts) == 2
        assert all(a.outcome == "crash" for a in failure.attempts)
        assert "feedbeefcafe" in failure.describe()
        assert "cell 0" in failure.describe()

    def test_describe_names_the_seed_when_known(self):
        failure = SweepFailure(cell_index=2, params={"x": 1}, seed=99)
        assert failure.describe() == (
            "sweep cell 2 failed (params {'x': 1}) (seed 99)"
        )
        unseeded = SweepFailure(cell_index=2, params={"x": 1})
        assert "seed" not in unseeded.describe()

    def test_sweep_error_is_a_runtime_error(self):
        failure = SweepFailure(cell_index=3, params={"x": 1})
        assert isinstance(SweepError(failure), RuntimeError)

    def test_record_mode_completes_around_holes(self, tmp_path):
        runner = ParallelRunner(workers=2)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(1, times=10)
        failures = []
        cells = runner.map_cells(
            plan.wrap(rng_cell), _sets(4), rng=1,
            execution=ExecutionSpec(max_retries=0, on_failure="record"),
            failures_out=failures,
        )
        assert cells[1] is None
        assert [c is not None for c in cells] == [True, False, True, True]
        assert len(failures) == 1
        assert failures[0].cell_index == 1
        assert failures[0].attempts[0].outcome == "crash"

    def test_deterministic_exception_fails_without_retry(self):
        runner = ParallelRunner(workers=2)
        failures = []
        cells = runner.map_cells(
            error_cell, _sets(3), rng=1,
            execution=ExecutionSpec(max_retries=3, on_failure="record"),
            failures_out=failures,
        )
        assert cells[1] is None
        assert len(failures) == 1
        # One attempt only: exceptions are deterministic, retry is waste.
        assert len(failures[0].attempts) == 1
        assert failures[0].attempts[0].outcome == "error"
        assert "deterministic cell bug" in failures[0].traceback

    def test_record_mode_in_sweep_result(self, tmp_path):
        from repro.spec.model import SweepSpec

        runner = ParallelRunner(workers=2)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(0, times=10)
        result = runner.run_sweep(
            SweepSpec(replications=3),
            plan.wrap(rng_cell),
            rng=2,
            execution=ExecutionSpec(max_retries=0, on_failure="record"),
        )
        assert not result.ok
        assert len(result.failures) == 1
        assert len(result.completed_cells()) == 2
        table = result.to_table()
        assert "FAILED" in table
        column = result.column("draw")
        assert np.isnan(column[0])
        assert not np.isnan(column[1:]).any()
        assert result.best("draw") is not None

    def test_clean_cells_are_never_reported_as_crashes(self):
        # If anything but a worker's own reader thread closes its pipe
        # end, the next worker's pipe can reuse the descriptor number and
        # the stale reader steals that worker's result: at two workers
        # 1–2% of clean cells then read as "worker died (exit code 0)".
        failures = []
        cells = ParallelRunner(workers=2).map_cells(
            rng_cell, _sets(300), rng=0,
            execution=ExecutionSpec(max_retries=0, on_failure="record"),
            failures_out=failures,
        )
        assert [f.describe() for f in failures] == []
        assert all(cell is not None for cell in cells)


class TestExecutionSpecBehavior:
    def test_default_is_unsupervised(self):
        assert not ExecutionSpec().supervised

    def test_any_fault_knob_enables_supervision(self):
        assert ExecutionSpec(max_retries=1).supervised
        assert ExecutionSpec(cell_timeout=5.0).supervised
        assert ExecutionSpec(heartbeat_interval=1.0).supervised
        assert ExecutionSpec(on_failure="record").supervised

    def test_backoff_is_exponential_bounded_and_deterministic(self):
        spec = ExecutionSpec(
            max_retries=8, backoff_base=0.5, backoff_max=4.0
        )
        delays_a = [spec.retry_delay(42, k) for k in range(1, 9)]
        delays_b = [spec.retry_delay(42, k) for k in range(1, 9)]
        assert delays_a == delays_b  # deterministic in (seed, attempt)
        assert delays_a != [spec.retry_delay(43, k) for k in range(1, 9)]
        bases = [min(4.0, 0.5 * 2.0 ** (k - 1)) for k in range(1, 9)]
        for delay, base in zip(delays_a, bases):
            assert base <= delay <= 2.0 * base  # jitter in [0, 100%)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionSpec(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionSpec(cell_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionSpec(backoff_base=-0.1)
        with pytest.raises(ValueError):
            ExecutionSpec(backoff_base=2.0, backoff_max=1.0)
        with pytest.raises(ValueError):
            ExecutionSpec(heartbeat_interval=-1.0)
        with pytest.raises(ValueError):
            ExecutionSpec(on_failure="explode")


class TestStoreResume:
    def test_cells_commit_and_resume_without_recompute(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=2)
        first = runner.map_cells(
            rng_cell, _sets(4), rng=7, store=store, spec_digest="cafe01234567"
        )
        assert len(store) == 4
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(0, times=10)
        # Every cell is a cache hit: the crashing wrapper never runs.
        resumed = runner.map_cells(
            plan.wrap(rng_cell), _sets(4), rng=7,
            store=store, spec_digest="cafe01234567",
        )
        assert [c.metrics for c in resumed] == [c.metrics for c in first]

    def test_partial_store_computes_only_missing_cells(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=2)
        full = runner.map_cells(rng_cell, _sets(4), rng=7)
        # Pre-commit cells 0 and 2 under their true derived seeds.
        from repro.util.rng import as_generator, derive_seed

        parent = as_generator(7)
        seeds = [derive_seed(parent) for _ in range(4)]
        for i in (0, 2):
            store.put(
                "cafe01234567",
                cell_digest({"replication": i}, seeds[i]),
                dict(full[i].metrics),
                params={"replication": i},
                seed=seeds[i],
            )
        resumed = runner.map_cells(
            rng_cell, _sets(4), rng=7,
            store=store, spec_digest="cafe01234567",
        )
        assert [c.metrics for c in resumed] == [c.metrics for c in full]
        assert len(store) == 4  # the two missing cells were committed

    def test_array_metrics_roundtrip_through_store(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=2)
        first = runner.map_cells(
            array_cell, _sets(3), rng=5, store=store, spec_digest="beef"
        )
        resumed = runner.map_cells(
            array_cell, _sets(3), rng=5, store=store, spec_digest="beef"
        )
        for a, b in zip(resumed, first):
            np.testing.assert_array_equal(
                a.metrics["trace"], b.metrics["trace"]
            )

    def test_single_worker_store_runs_inline(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=1)
        first = runner.map_cells(
            rng_cell, _sets(3), rng=7, store=store, spec_digest="0123"
        )
        assert len(store) == 3
        clean = ParallelRunner(workers=1).map_cells(rng_cell, _sets(3), rng=7)
        assert [c.metrics for c in first] == [c.metrics for c in clean]

    def test_single_worker_store_contains_a_failing_cell(self, tmp_path):
        """A store changes nothing about containment: one worker runs every
        cell and raises one SweepError naming the failed cell, and its
        siblings are committed."""
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=1)
        with pytest.raises(SweepError) as excinfo:
            runner.map_cells(
                zero_division_cell, _sets(3), rng=7,
                store=store, spec_digest="0123",
            )
        assert excinfo.value.failure.cell_index == 1
        assert "ZeroDivisionError" in excinfo.value.failure.traceback
        assert len(store) == 2
        from repro.util.rng import as_generator, derive_seed

        parent = as_generator(7)
        seeds = [derive_seed(parent) for _ in range(3)]
        for index in (0, 2):
            cached = store.get("0123", cell_digest(_sets(3)[index], seeds[index]))
            assert cached == rng_cell(_sets(3)[index], seeds[index])

    def test_corrupt_entry_recomputed_not_served(self, tmp_path):
        from repro.analysis.chaos import corrupt_array_payload

        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=2)
        first = runner.map_cells(
            array_cell, _sets(2), rng=5, store=store, spec_digest="beef"
        )
        corrupt_array_payload(store.root)
        resumed = runner.map_cells(
            array_cell, _sets(2), rng=5, store=store, spec_digest="beef"
        )
        for a, b in zip(resumed, first):
            np.testing.assert_array_equal(
                a.metrics["trace"], b.metrics["trace"]
            )
        assert len(store) == 2  # quarantined entry was recommitted

    def test_different_spec_digest_misses(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        runner = ParallelRunner(workers=1)
        runner.map_cells(rng_cell, _sets(2), rng=7, store=store,
                         spec_digest="spec-a")
        runner.map_cells(rng_cell, _sets(2), rng=7, store=store,
                         spec_digest="spec-b")
        assert len(store) == 4


class TestShmReaping:
    def test_crash_between_announce_and_delivery_leaks_nothing(self, tmp_path):
        """Results ride the worker's pipe: a worker killed mid-cell leaves
        no shared segment or backing file behind, and its retry is
        bit-identical to a clean run."""

        def backings():
            return set(glob.glob("/dev/shm/psm_*")) | set(
                glob.glob(os.path.join(tempfile.gettempdir(), "repro-trace-*"))
            )

        before = backings()
        runner = ParallelRunner(workers=2)
        clean = runner.map_cells(array_cell, _sets(3), rng=1)
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(0)
        retried = runner.map_cells(
            plan.wrap(array_cell), _sets(3), rng=1,
            execution=ExecutionSpec(max_retries=1),
        )
        for a, b in zip(retried, clean):
            assert a.metrics["draw"] == b.metrics["draw"]
            np.testing.assert_array_equal(a.metrics["trace"], b.metrics["trace"])
        assert not backings() - before


class TestSupervisorInternals:
    def test_stats_count_retries_and_completions(self, tmp_path):
        plan = ChaosPlan(tmp_path / "chaos").crash_cell(1)
        supervisor = Supervisor(workers=2, execution=ExecutionSpec(max_retries=1))
        results, failures = supervisor.run(
            [
                (plan.wrap(rng_cell), {"replication": i}, 1000 + i, i)
                for i in range(3)
            ]
        )
        assert not failures
        assert len(results) == 3
        assert supervisor.stats["completed"] == 3
        assert supervisor.stats["crashes"] == 1
        assert supervisor.stats["retries"] == 1

    def test_result_forwarded_late_is_not_a_crash(self, monkeypatch):
        """A worker that sent ``ok`` and exited cleanly is no crash, even
        when its pipe reader forwards the result well after the exit (a
        loaded host); with ``max_retries=0`` a miscount would fail the
        cell outright."""
        from repro.analysis import supervision

        real_reader = supervision._pipe_reader

        class LateQueue:
            def __init__(self, inner):
                self._inner = inner

            def put(self, message):
                time.sleep(0.6)  # past the old fixed ~0.25 s grace
                self._inner.put(message)

        monkeypatch.setattr(
            supervision,
            "_pipe_reader",
            lambda conn, out: real_reader(conn, LateQueue(out)),
        )
        supervisor = Supervisor(workers=2, execution=ExecutionSpec(max_retries=0))
        results, failures = supervisor.run(
            [(rng_cell, {"replication": i}, 1000 + i, i) for i in range(2)]
        )
        assert not failures
        assert sorted(results) == [0, 1]
        assert supervisor.stats["crashes"] == 0

    def test_attempt_history_serializes(self):
        failure = SweepFailure(
            cell_index=2,
            params={"x": 1},
            seed=99,
            spec_digest="d1",
            attempts=[CellAttempt(1, "crash", 0.5, "exit 9")],
            traceback="boom",
        )
        data = failure.to_dict()
        assert data["cell_index"] == 2
        assert data["attempts"][0]["outcome"] == "crash"
        assert data["seed"] == 99
