"""Smoke test of the benchmark at its quick shapes.

Repetitions run in this process (the benchmark's process launcher is
swapped for direct calls), so the test checks what the benchmark emits and
verifies, not how fast it is; one real quick run and one run without the
program source check the process plumbing and the failure exit.
"""

import io
import json
import shutil
import subprocess
import sys
import time

import pytest

import repro.cli
from bench import child, run, speed
from bench.trace import PER_LAYER
from bench.workloads import WORKLOADS


def _in_process(cmd, env, calibrator):
    """Stand-in for ``run._call``: the same entry points, no new process,
    and a host that runs at the reference speed."""
    start = time.perf_counter()
    args = [str(part) for part in cmd]
    if args[1:3] == ["-m", "bench.child"]:
        assert child.main(args[3:]) == 0
    elif args[1:3] == ["-m", "repro"]:
        assert repro.cli.main(args[3:], out=io.StringIO()) == 0
    end = time.perf_counter()
    return speed.Timed(0, start, end, [(end, {kind: 1.0 for kind in speed.REFERENCE_S})])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "WORK", tmp_path_factory.mktemp("bench_work"))
    patch.setattr(run, "_call", _in_process)
    try:
        return {
            name: run.run_workload(workload, seed=0, seconds=0, repeats=1, trace=True,
                                   tree=run.ROOT, quick=True)
            for name, workload in WORKLOADS.items()
        }
    finally:
        patch.undo()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(records, name):
    record = records[name]
    assert {m: s["unit"] for m, s in record["end_to_end"].items()} == {
        m: unit for m, (unit, _) in run.END_TO_END.items()
    }
    assert {m: s["unit"] for m, s in record["per_layer"].items()} == {
        m: unit for m, (unit, _) in PER_LAYER.items()
    }
    line = run.result_line(record, trace=False)
    assert line["correct"] and line["attempted"] >= 1
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_and_trace_covers_the_run(records, name):
    record = records[name]
    assert record["failed"] == 0, record["failures"]
    assert record["error_rate"] == 0
    assert record["per_layer"]["trace.coverage"]["median"] >= 0.95


def test_benchmark_json_declares_what_the_code_emits():
    declared = run.declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert {m["name"]: (m["unit"], m["better"] == "higher")
            for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"] == "higher")
            for m in declared["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert declared["paths"] == ["bench"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


def test_compare_calls_a_gain_only_on_nine_of_ten_pairs_beyond_the_spread():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [value * 0.8 for value in parent]
    assert run.compare_metric("wall_s", parent, faster, 0.24)["verdict"] == "gain"
    assert run.compare_metric("rounds_per_s", parent, faster, 0.24)["verdict"] == "unresolved"
    assert not run.compare_metric("rounds_per_s", parent, faster, 0.1)["within_bound"]
    two_losses = faster[:8] + parent[8:]
    assert run.compare_metric("wall_s", parent, two_losses, 0.24)["verdict"] == "unresolved"
    assert run.compare_metric("wall_s", parent[:5], faster[:5], 0.24)["verdict"] == "unresolved"
    within_spread = [value - 0.05 for value in parent]
    assert run.compare_metric("wall_s", parent, within_spread, 0.24)["verdict"] == "unresolved"


def test_quick_run_end_to_end_in_fresh_processes():
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "fused_c50",
           "--quick", "--repeats", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_calibrated_process_is_timed_with_the_host_speed():
    timed = speed.Calibrator(memory=False).run(
        [sys.executable, "-c", "import time; time.sleep(0.5)"], timeout=30)
    assert timed.code == 0 and 0.5 <= timed.wall < 30
    assert len(timed.chunks) >= 3
    slow = timed.slowdown("interpreter", timed.start, timed.end)
    assert slow > 0
    assert timed.reference_s("interpreter", timed.start, timed.end) == pytest.approx(
        timed.wall / slow)
    # A stretch no chunk fell in takes the nearest chunk's.
    first = timed.chunks[0]
    assert timed.slowdown("interpreter", first[0] - 1e-6, first[0] - 1e-7) == pytest.approx(
        first[1]["interpreter"])
    failed = speed.Calibrator(memory=False).run(
        [sys.executable, "-c", "raise SystemExit(3)"], timeout=30)
    assert failed.code == 3


def test_calibrated_process_is_killed_past_its_timeout():
    start = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired):
        speed.Calibrator(memory=False).run(
            [sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.3)
    assert time.perf_counter() - start < 10


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fused_c50"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
