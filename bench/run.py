"""The benchmark: named workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py                          # every workload, seed 0
    python3 bench/run.py --workload fused_c50 --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --trace 1                # per-layer metrics
    python3 bench/run.py --out record.json        # full record, with spread
    python3 bench/run.py compare --a HEAD~1 --b .

``--workload W --seed N --seconds T --trace 0|1`` is the benchmark's
calling convention, the form benchmark runners invoke it in; ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json`` and ``--quick`` sets it
to 0.

One repetition of a workload is a few fresh processes, run one at a
time: the cold run (``bench/child.py``: the ``repro run`` or ``repro
eval`` command in-process, on a fresh results store), then the user's own
``python -m repro ... --resume`` command, three times, against the store
the cold run filled.  A run repeats until ``--seconds`` have passed and
``--repeats`` untraced repetitions have finished, then reports each
metric's median.  With ``--trace 1`` every other repetition is traced and
the run reports the per-layer metrics instead.

The benchmark and every process it starts run on one core, and every
time is reported in reference seconds (:mod:`bench.speed`): each stretch
of a process -- set-up, the timed blocks of rounds, the rest -- over how
much slower than on the reference host a calibration kernel ran on that
core during that stretch.  The report prints the raw medians and the
host's slowdown beside them.

Every workload prints its metrics by name and unit, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A process that fails ends the benchmark with a non-zero exit status and
no result; a failed correctness check is reported in the result.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # As a script this file's own directory heads sys.path; import the
    # bench package from the repository root instead.
    sys.path[0] = str(ROOT)

from bench.speed import Calibrator
from bench.trace import PER_LAYER, layer_metrics
from bench.workloads import EVAL_EXPECTED, WORKLOADS, eval_spec, sim_spec

#: End-to-end metrics: name -> (unit, True when higher is better).
END_TO_END = {
    "setup_s": ("s", False),
    "wall_s": ("s", False),
    "resume_wall_s": ("s", False),
    "rounds_per_s": ("1/s", True),
    "peak_rss_mb": ("MiB", False),
}

#: Working directory for generated inputs, stores and records.
WORK = ROOT / ".bench_work"

#: One process may take this long before the benchmark gives up on it.
PROCESS_TIMEOUT_S = 150

#: One whole workload run may take this long inside ``compare``.
RUN_TIMEOUT_S = 600

#: Resume processes per untraced repetition: each is short and mostly
#: import, so several samples steady the median.
RESUMES = 3

#: Interleaved pairs ``compare`` runs, and the fewest it may call a gain on.
MIN_PAIRS = 10

#: Relative tolerance of the pinned eval expectations.
EVAL_RTOL = 1e-6


class BenchError(RuntimeError):
    """A benchmark process failed; the run has no result."""


def declared() -> dict:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _call(cmd, env, calibrator):
    """Run one process to its end while ``calibrator`` samples the host's
    speed; a :class:`bench.speed.Timed`."""
    cmd = [str(part) for part in cmd]
    stderr = WORK / "stderr.txt"
    with open(stderr, "wb") as err:
        try:
            timed = calibrator.run(cmd, PROCESS_TIMEOUT_S, cwd=ROOT, env=env,
                                   stdout=subprocess.DEVNULL, stderr=err)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(cmd)}: no exit within {PROCESS_TIMEOUT_S} s") from None
    if timed.code != 0:
        tail = stderr.read_text(errors="replace")[-3000:]
        raise BenchError(f"{' '.join(cmd)} exited {timed.code}:\n{tail}")
    return timed


def summarize(values) -> dict:
    """Median, quartiles and sample count."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_context() -> dict:
    """What the numbers were measured on."""
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_bytes": l3_bytes,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


class WorkloadRun:
    """One workload at one seed: generated inputs, repetitions, checks."""

    def __init__(self, workload, seed: int, tree: Path, quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tree = tree
        self.quick = quick
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spec_path = self.work / "spec.json"
        if workload.kind == "sim":
            spec = sim_spec(workload, seed, quick)
        else:
            spec = eval_spec(tree, seed, quick)
        self.spec_path.write_text(json.dumps(spec, indent=2))
        self.expected = None
        if workload.kind == "eval" and seed == 0 and not quick:
            self.expected = json.loads((tree / EVAL_EXPECTED).read_text())["vectorized"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tree / "src"), env.get("PYTHONPATH")])
        )
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reference = None  # first repetition's digest or eval output
        self.calibrator = Calibrator(memory=workload.bound_by == "memory")

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def warm_caches(self) -> None:
        """Compile and page in the program once, outside the measurement."""
        _call([sys.executable, "-c", "import repro.cli, repro.workloads"], self.env,
              self.calibrator)

    def _child(self, mode, out, *args, traced=False):
        cmd = [sys.executable, "-m", "bench.child", mode, "--out", out, *args]
        return cmd + ["--trace"] if traced else cmd

    def repetition(self, index: int, traced: bool) -> dict:
        rep = self.work / f"rep{index}"
        rep.mkdir()
        store = rep / "store"
        spec = self.spec_path
        if self.workload.kind == "sim":
            shape = self.workload.shape(self.quick)
            cold = self._child("sim", rep / "cold.json", "--spec", spec, "--store",
                                store, "--warmup", shape.warmup, traced=traced)
        else:
            cold = self._child("eval", rep / "cold.json", "--spec", spec, "--store",
                                store, "--output", rep / "matrix.json", traced=traced)
        cold = _call(cold, self.env, self.calibrator)
        if traced:
            resume = self._child("resume", rep / "resume.json", "--",
                                  *self.resume_args(rep, 0))
            resumes = [_call(resume, self.env, self.calibrator)]
        else:
            resumes = [
                _call([sys.executable, "-m", "repro", *self.resume_args(rep, k)], self.env,
                      self.calibrator)
                for k in range(RESUMES)
            ]

        record = json.loads((rep / "cold.json").read_text())
        records = [record]
        if traced:
            records.append(json.loads((rep / "resume.json").read_text()))
        for proc in records:
            self.attempted += proc["attempted"]
            self.failed += proc["failed"]
            self.messages += proc["failures"]
            source = Path(proc["repro_file"]).resolve()
            self.check(source.is_relative_to((self.tree / "src").resolve()),
                       f"imported repro from {source}, not from {self.tree}")
        if self.workload.kind == "sim":
            cells = self.check_sim(record)
        else:
            cells = self.check_eval(rep, len(resumes))
        # The resumes were served from the store: they committed nothing.
        from repro.store import ResultsStore

        entries = len(ResultsStore(store, create=False))
        self.check(entries == cells,
                   f"the store holds {entries} entries after the resumes, expected "
                   f"the cold run's {cells}")
        kind = self.workload.bound_by
        entry, ready, blocks = record["entry_at"], record["ready_at"], record["blocks"]

        def rate(seconds):
            return statistics.median(n / seconds(a, b) for a, b, n in blocks)

        raw = {
            "wall_s": cold.wall,
            "setup_s": ready - entry,
            "resume_wall_s": [r.wall for r in resumes],
            "rounds_per_s": rate(lambda a, b: b - a),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        # Reference seconds: up to ready the cold process is interpreter-
        # bound, as are the resumes; from ready on it is bound by what the
        # workload's rounds are bound by.
        result = {
            "traced": traced,
            "raw": raw,
            "slowdown": cold.slowdown(kind, ready, cold.end),
            "wall_s": (cold.reference_s("interpreter", cold.start, ready)
                       + cold.reference_s(kind, ready, cold.end)),
            "setup_s": cold.reference_s("interpreter", entry, ready),
            "resume_wall_s": [r.reference_s("interpreter", r.start, r.end)
                              for r in resumes],
            "rounds_per_s": rate(functools.partial(cold.reference_s, kind)),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        if "mean_online_peers" in record:
            for values in (raw, result):
                values["peer_rounds_per_s"] = (values["rounds_per_s"]
                                               * record["mean_online_peers"])
        if traced:
            result["layers"] = layer_metrics(proc["trace"] for proc in records)
        return result

    def resume_args(self, rep: Path, k: int) -> list:
        """The user's resume command (after ``python -m repro``)."""
        store = rep / "store"
        if self.workload.kind == "sim":
            return ["run", "--spec", self.spec_path, "--store", store, "--resume"]
        return ["eval", "--spec", self.spec_path, "--workers", "1", "--store", store,
                "--resume", "--format", "json", "--output", rep / f"resumed{k}.json"]

    def check_sim(self, record: dict) -> int:
        """Checks of a simulator repetition; the number of store cells."""
        shape = self.workload.shape(self.quick)
        self.check(record["rounds"] == shape.warmup + shape.rounds,
                   f"trace has {record['rounds']} rounds, expected "
                   f"{shape.warmup + shape.rounds}")
        if self.reference is None:
            self.reference = record["digest"]
        self.check(record["digest"] == self.reference,
                   "trace digest differs between repetitions of one seed")
        return 1

    def check_eval(self, rep: Path, resumes: int) -> int:
        """Checks of an eval repetition; the number of store cells."""
        cold = (rep / "matrix.json").read_bytes()
        for k in range(resumes):
            self.check(cold == (rep / f"resumed{k}.json").read_bytes(),
                       "resumed eval output differs from the cold one")
        if self.reference is None:
            self.reference = cold
        self.check(cold == self.reference,
                   "eval output differs between repetitions of one seed")
        cells = json.loads(cold)["cells"]
        if self.expected is None:
            return len(cells)
        for cell in filter(None, cells):
            key = f"{cell['scenario']}/{cell['learner']}"
            want = self.expected.get(key, {})
            ok = bool(want) and all(
                math.isclose(cell["metrics"][name], value, rel_tol=EVAL_RTOL, abs_tol=1e-9)
                for name, value in want.items()
            )
            self.check(ok, f"eval cell {key} differs from {EVAL_EXPECTED}")
        return len(cells)


def samples(reps, name) -> list:
    """Every sample of one metric; a repetition may hold several."""
    out = []
    for rep in reps:
        value = rep[name]
        out.extend(value if isinstance(value, list) else [value])
    return out


def run_workload(workload, seed, seconds, repeats, trace, tree, quick) -> dict:
    """Repeat one workload for ``seconds``; its metrics and checks."""
    run = WorkloadRun(workload, seed, tree, quick)
    run.warm_caches()
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run.repetition(len(reps), traced))
        untraced = [r for r in reps if not r["traced"]]
        traced_reps = [r for r in reps if r["traced"]]
        if (time.perf_counter() - start >= seconds and len(untraced) >= repeats
                and (traced_reps or not trace)):
            break
    end_to_end = {
        name: dict(summarize(samples(untraced, name)), unit=unit)
        for name, (unit, _) in END_TO_END.items()
    }
    raw = [r["raw"] for r in untraced]
    record = {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "seconds": time.perf_counter() - start,
        "repetitions": reps,
        "end_to_end": end_to_end,
        "raw_end_to_end": {name: summarize(samples(raw, name)) for name in END_TO_END},
        "slowdown": summarize(r["slowdown"] for r in untraced),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.messages,
        "error_rate": run.failed / max(1, run.attempted),
    }
    if workload.kind == "sim":
        record["digest"] = run.reference
        record["peer_rounds_per_s"] = summarize(r["peer_rounds_per_s"] for r in untraced)
        regret = workload.shape(quick).regret_bytes()
        if regret is not None:
            record["regret_tensor_bytes"] = regret
    if trace:
        per_layer = {
            name: dict(summarize(r["layers"][name] for r in traced_reps), unit=unit)
            for name, (unit, _) in PER_LAYER.items() if name != "trace.overhead"
        }
        overhead = (
            summarize(r["wall_s"] for r in traced_reps)["median"]
            / end_to_end["wall_s"]["median"] - 1.0
        )
        per_layer["trace.overhead"] = dict(summarize([overhead]), unit="fraction")
        record["per_layer"] = per_layer
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The one-line JSON result of a workload run."""
    metrics = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": stats["median"], "unit": stats["unit"]}
            for name, stats in metrics.items()
        },
    }


def report(record: dict, trace: bool, machine: dict) -> None:
    """Every metric by name and unit, with its spread."""
    untraced = sum(not r["traced"] for r in record["repetitions"])
    print(f"{record['workload']}: seed {record['seed']}, {len(record['repetitions'])} "
          f"repetitions ({untraced} untraced) in {record['seconds']:.1f} s")
    if "regret_tensor_bytes" in record and machine["l3_bytes"]:
        size = record["regret_tensor_bytes"]
        print(f"  regret tensors {size / 1e6:.1f} MB = {size / machine['l3_bytes']:.2f}x "
              f"the {machine['l3_bytes'] / 2**20:.0f} MiB L3")
    s = record["slowdown"]
    print(f"  host slowdown on {WORKLOADS[record['workload']].bound_by} work during the "
          f"timed rounds: {s['median']:.3f}x [{s['q1']:.3f}, {s['q3']:.3f}]")
    print("  raw (medians): " + ", ".join(
        f"{name} {s['median']:.6g}" for name, s in record["raw_end_to_end"].items()))
    sections = [("end to end (reference seconds)", record["end_to_end"])]
    if trace:
        sections.append(("per layer (traced repetitions)", record["per_layer"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, s in metrics.items():
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"    {name:34s} {s['median']:>14.6g} {s['unit']:9s} "
                  f"IQR {s['q3'] - s['q1']:.3g} ({spread:.1%}) n={s['n']}")
    print(f"    {'error_rate':34s} {record['error_rate']:>14.6g} {'fraction':9s} "
          f"{record['failed']} of {record['attempted']} checks failed")
    for message in record["failures"][:10]:
        print(f"    FAILED: {message}")


def run_main(args) -> int:
    args.tree = args.tree.resolve()
    if not (args.tree / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {args.tree / 'src'}", file=sys.stderr)
        return 2
    # The checks read the results store through the program's own API.
    sys.path.insert(0, str(args.tree / "src"))
    seconds = 0 if args.quick else args.seconds
    trace = args.trace == 1
    # One core for every process and the calibration alike, so that the
    # kernels time the core the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    machine = machine_context()
    print("machine: " + ", ".join(f"{key} {value}" for key, value in machine.items()))
    records = []
    try:
        for name in args.workloads:
            record = run_workload(WORKLOADS[name], args.seed, seconds, args.repeats,
                                  trace, args.tree, args.quick)
            records.append(record)
            report(record, trace, machine)
            print(json.dumps(result_line(record, trace)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps({"machine": machine, "runs": records}, indent=1) + "\n")
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def resolve_tree(ref: str) -> Path:
    """A source tree: a directory as is, or a git revision exported under WORK."""
    path = Path(ref)
    if (path / "src" / "repro").is_dir():
        return path.resolve()
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True)
    if sha.returncode != 0:
        raise BenchError(f"{ref!r} is neither a source tree nor a git revision")
    dest = WORK / "trees" / sha.stdout.strip()
    if not (dest / "src" / "repro").is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", sha.stdout.strip()],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def better(name: str, x: float, y: float) -> bool:
    """Whether ``x`` is strictly better than ``y`` on metric ``name``."""
    higher = END_TO_END[name][1]
    return x > y if higher else x < y


def compare_metric(name: str, a: list, b: list, bound: float) -> dict:
    """Pairs ``a[i]``/``b[i]``: B's wins, and whether B's gain is resolved.

    A gain needs at least ten pairs, B winning nine tenths of them (ties
    count for neither), and the medians differing by more than A's
    interquartile range.  ``within_bound``: B's median is not worse than
    A's by more than the benchmark's bound.
    """
    sa, sb = summarize(a), summarize(b)
    wins = sum(better(name, y, x) for x, y in zip(a, b))
    gap = abs(sb["median"] - sa["median"])
    gain = (len(a) >= MIN_PAIRS and wins >= math.ceil(0.9 * len(a))
            and gap > sa["q3"] - sa["q1"] and better(name, sb["median"], sa["median"]))
    worse = 0.0 if not better(name, sa["median"], sb["median"]) else gap / sa["median"]
    return {"a": sa, "b": sb, "wins": wins, "pairs": len(a),
            "verdict": "gain" if gain else "unresolved",
            "within_bound": worse <= bound}


def compare_main(args) -> int:
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    try:
        trees = {"a": resolve_tree(args.a), "b": resolve_tree(args.b)}
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = {w: {"a": [], "b": [], "correct": True} for w in args.workloads}
    for i in range(MIN_PAIRS):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for name in args.workloads:
            for side in order:
                cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                       "--seed", str(args.seed + i), "--tree", str(trees[side])]
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                          timeout=RUN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    print(f"error: side {side} ({trees[side]}) did not finish {name} "
                          f"in {RUN_TIMEOUT_S} s", file=sys.stderr)
                    return 1
                if proc.returncode != 0:
                    print(f"error: side {side} ({trees[side]}) failed on {name}:\n"
                          f"{proc.stderr[-3000:]}", file=sys.stderr)
                    return 1
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                values[name][side].append(line["metrics"])
                values[name]["correct"] &= line["correct"]
            print(f"pair {i + 1}/{MIN_PAIRS} {name} done", file=sys.stderr, flush=True)
    print(f"A = {trees['a']}\nB = {trees['b']}\n{MIN_PAIRS} interleaved pairs, "
          f"{declared()['run_seconds']} s per run; B wins = pairs where B reads better")
    print(f"{'workload':12s} {'metric':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A-1':>8s} {'B wins':>7s}  verdict")
    for name, sides in values.items():
        for metric in END_TO_END:
            a = [m[metric]["value"] for m in sides["a"]]
            b = [m[metric]["value"] for m in sides["b"]]
            result = compare_metric(metric, a, b, bounds[metric])
            sa, sb = result["a"], result["b"]
            verdict = result["verdict"]
            if not result["within_bound"]:
                verdict += ", worse than bound"
            if not sides["correct"]:
                verdict += ", CHECKS FAILED"
            print(f"{name:12s} {metric:14s} "
                  f"{sa['median']:>12.5g} [{sa['q1']:.4g}, {sa['q3']:.4g}] "
                  f"{sb['median']:>12.5g} [{sb['q1']:.4g}, {sb['q3']:.4g}] "
                  f"{sb['median'] / sa['median'] - 1:>+8.1%} "
                  f"{result['wins']:>3d}/{result['pairs']:<3d}  {verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"],
                        help="how long one workload run measures "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fewest untraced repetitions per run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics of traced repetitions")
    parser.add_argument("--quick", action="store_true",
                        help="small shapes on every code path, no minimum run "
                        "length (smoke test)")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the source tree to benchmark (default: this checkout)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record, with spread and machine context")
    return parser


def build_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Interleaved A/B runs of the benchmark over two source trees.",
    )
    parser.add_argument("--a", required=True, help="parent: a source tree or git revision")
    parser.add_argument("--b", required=True, help="change: a source tree or git revision")
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="pair i runs both sides at seed SEED + i")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare_main(build_compare_parser().parse_args(argv[1:]))
    return run_main(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
