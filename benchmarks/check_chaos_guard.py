#!/usr/bin/env python
"""Chaos guard: fault-injected sweeps must converge to clean-run results.

CI runs ``examples/smoke.json`` as a replication sweep under injected
infrastructure faults and asserts the fault-tolerance contract:

* **Recovery**: with worker kills (hard ``os._exit`` mid-cell) and one
  injected hang, the supervised sweep still completes, and every
  retried cell is *bit-identical* to the same cell from a never-faulted
  run (volatile wall-clock metrics excluded — they are timings, not
  results);
* **Resume**: a sweep writing to a ``--store`` that is ``SIGKILL``-ed
  mid-flight resumes with ``--resume`` without recomputing any finished
  cell (committed entries are byte-unchanged after the resumed run),
  and the merged result is bit-identical to an uninterrupted sweep.

Usage::

    PYTHONPATH=src python benchmarks/check_chaos_guard.py
"""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.chaos import ChaosPlan  # noqa: E402
from repro.analysis.parallel import ParallelRunner  # noqa: E402
from repro.spec import ExecutionSpec, ExperimentSpec, SweepSpec  # noqa: E402
from repro.spec.cells import run_spec_cell  # noqa: E402
from repro.store import ResultsStore  # noqa: E402

SPEC_PATH = REPO / "examples" / "smoke.json"

#: Per-cell wall-clock measurements: legitimate run-to-run variation,
#: excluded from every bit-identity comparison.
VOLATILE = ("elapsed_s", "rounds_per_s", "telemetry")

#: Replications for the in-process chaos sweep.
CHAOS_CELLS = 6

#: Replications for the SIGKILL/resume sweep (the acceptance scenario).
RESUME_CELLS = 9

#: Rounds override for the resume sweep: slow enough (~0.5 s/cell) that
#: the kill reliably lands mid-flight, fast enough to keep CI snappy.
RESUME_ROUNDS = 2000


def stable(metrics):
    """Result metrics with the wall-clock measurements stripped."""
    return {k: v for k, v in metrics.items() if k not in VOLATILE}


def check_chaos_recovery(spec: ExperimentSpec) -> list:
    """Injected crashes + one hang: sweep completes, retries bit-identical."""
    failures = []
    sweep = SweepSpec(replications=CHAOS_CELLS)
    clean = spec.sweep(runner=ParallelRunner(workers=2), sweep=sweep)
    execution = ExecutionSpec(
        max_retries=2, cell_timeout=5.0, heartbeat_interval=0.2,
    )
    with tempfile.TemporaryDirectory() as coord:
        plan = (
            ChaosPlan(coord)
            .crash_cell(1)
            .crash_cell(3)
            .hang_cell(4, seconds=3600.0)
        )
        cell_fn = plan.wrap(functools.partial(run_spec_cell, spec.to_dict()))
        chaotic = ParallelRunner(workers=2).run_sweep(
            sweep, cell_fn, rng=spec.seed,
            execution=execution, spec_digest=spec.result_digest(),
        )
    if not chaotic.ok or len(chaotic.completed_cells()) != CHAOS_CELLS:
        failures.append(
            f"chaos sweep did not complete: "
            f"{len(chaotic.completed_cells())}/{CHAOS_CELLS} cells, "
            f"failures={[f.describe() for f in chaotic.failures]}"
        )
        return failures
    for index, (a, b) in enumerate(zip(clean.cells, chaotic.cells)):
        if a.parameters != b.parameters:
            failures.append(f"cell {index}: parameter mismatch")
            continue
        sa, sb = stable(a.metrics), stable(b.metrics)
        if sorted(sa) != sorted(sb):
            failures.append(f"cell {index}: metric sets differ")
            continue
        for name in sa:
            if not (sa[name] == sb[name]):
                failures.append(
                    f"cell {index} metric {name}: clean {sa[name]!r} "
                    f"!= chaotic {sb[name]!r} (retry not bit-identical)"
                )
    return failures


def _sweep_cmd(store_dir: str) -> list:
    return [
        sys.executable, "-m", "repro", "sweep",
        "--spec", str(SPEC_PATH),
        "--set", f"rounds={RESUME_ROUNDS}",
        "--replications", str(RESUME_CELLS),
        "--workers", "2",
        "--set", "execution.max_retries=1",
        "--store", store_dir,
    ]


def _entries(store_dir: str) -> list:
    objects = Path(store_dir) / "objects"
    if not objects.is_dir():
        return []
    return sorted(objects.glob("*/*/entry.json"))


def check_sigkill_resume(tmp: Path) -> list:
    """SIGKILL a storing sweep mid-flight; resume must not recompute."""
    failures = []
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    store_dir = str(tmp / "store")

    proc = subprocess.Popen(
        _sweep_cmd(store_dir), env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120.0
    while (
        time.time() < deadline
        and proc.poll() is None
        and len(_entries(store_dir)) < 2
    ):
        time.sleep(0.05)
    killed_midflight = proc.poll() is None
    if killed_midflight:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    committed = {p: p.read_bytes() for p in _entries(store_dir)}
    if not committed:
        failures.append("no cells committed before the kill")
        return failures
    if not killed_midflight:
        print(
            "note: sweep finished before the kill landed; resume still "
            "checked against a fully-populated store"
        )
    elif len(committed) >= RESUME_CELLS:
        print("note: all cells committed before the kill landed")

    resumed = subprocess.run(
        _sweep_cmd(store_dir) + ["--resume"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if resumed.returncode != 0:
        failures.append(
            f"resume exited {resumed.returncode}:\n"
            + resumed.stdout.decode(errors="replace")
        )
        return failures
    after = _entries(store_dir)
    if len(after) != RESUME_CELLS:
        failures.append(
            f"store holds {len(after)} entries after resume, "
            f"expected {RESUME_CELLS}"
        )
    for path, blob in committed.items():
        if not path.exists() or path.read_bytes() != blob:
            failures.append(
                f"resume recomputed already-committed cell {path.parent.name}"
            )

    # Uninterrupted reference sweep into a fresh store: the resumed
    # store's metrics must match it bit-for-bit.
    ref_dir = str(tmp / "ref")
    reference = subprocess.run(
        _sweep_cmd(ref_dir), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if reference.returncode != 0:
        failures.append(
            f"reference sweep exited {reference.returncode}:\n"
            + reference.stdout.decode(errors="replace")
        )
        return failures
    resumed_store = ResultsStore(store_dir, create=False)
    ref_store = ResultsStore(ref_dir, create=False)
    keys = resumed_store.entry_keys()
    if keys != ref_store.entry_keys():
        failures.append("resumed and reference stores hold different cells")
        return failures
    for spec_digest, cell_digest in keys:
        got = stable(resumed_store.get(spec_digest, cell_digest) or {})
        want = stable(ref_store.get(spec_digest, cell_digest) or {})
        if got != want:
            failures.append(
                f"cell {cell_digest}: resumed metrics differ from the "
                f"uninterrupted run"
            )
    return failures


def main() -> int:
    spec = ExperimentSpec.from_json(SPEC_PATH.read_text())
    failures = []

    print(f"chaos recovery: {CHAOS_CELLS} cells, 2 crashes + 1 hang ...")
    failures += check_chaos_recovery(spec)

    print(f"sigkill resume: {RESUME_CELLS} cells via the CLI ...")
    with tempfile.TemporaryDirectory() as tmp:
        failures += check_sigkill_resume(Path(tmp))

    if failures:
        print(f"\nFAIL ({len(failures)} problem(s)):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nPASS: chaos recovery bit-identical, sigkill resume clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
