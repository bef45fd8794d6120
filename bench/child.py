"""One process of one benchmark repetition: a ``repro`` command, observed.

``bench/run.py`` launches ``python -m bench.child MODE ...`` from the
repository root with ``PYTHONPATH`` naming the source tree's ``src``.
Every mode runs a ``repro`` command in this process through
``repro.cli.main`` -- the same call ``python -m repro`` makes:

* ``sim`` -- ``repro run --spec FILE --store DIR --workers 1`` on a fresh
  store, so that command's ``--resume`` is served from it;
* ``eval`` -- ``repro eval --spec FILE --workers 1 --store DIR --format
  json --output FILE`` on a fresh store;
* ``resume`` -- a traced ``repro`` command given after ``--`` (the
  untraced resume is the plain ``python -m repro`` command).

Wrappers put on from outside ``src/`` (:class:`Observer`) time the
command: set-up ends when ``ExperimentSpec.build`` first returns (``run``)
or when ``EvalSpec.build_cell_spec`` has returned once per matrix cell
(``eval``), and the first built system's simulator stamps the end of
every round.

Each mode writes a JSON record: the ``perf_counter`` stamps of entry and
ready and of the timed blocks of rounds (the parent turns them into
set-up time and throughput, with the host's speed over the same
stretches), peak RSS, the checks this process can make and, traced, the
per-span totals (``--trace``; spans themselves go to a ``.spans.json`` file beside
it).  The checks, the trace digest and the record are written after the
command returns, so the wall time the parent measures includes them: a
few milliseconds next to a run of seconds.
"""

import time

ENTRY = time.perf_counter()

import argparse
import hashlib
import io
import json
import math
import resource
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

#: Blocks the timed rounds of a simulator workload are split into.
TIMED_BLOCKS = 10


def _peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``VmHWM`` first: ``ru_maxrss`` also keeps the high-water mark of the
    address space this process was exec'd from, which after a vfork is the
    parent's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks: how many were made, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, failures: int, attempted: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failures
        if failures:
            self.messages.append(f"{message} ({failures} of {attempted})")

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.messages}


class Observer:
    """What the timing wrappers saw while one ``repro`` command ran."""

    def __init__(self) -> None:
        #: When the first system was built, and that system's trace.
        self.built = None
        self.trace = None
        #: ``perf_counter`` after each round of the first built system.
        self.round_ends = []
        #: ``perf_counter`` after each ``EvalSpec.build_cell_spec`` call.
        self.cell_specs = []
        self.code = None
        self.end = None

    @contextmanager
    def attached(self):
        """Wrap ``ExperimentSpec.build`` and ``EvalSpec.build_cell_spec``."""
        from repro.eval import EvalSpec
        from repro.spec import ExperimentSpec

        build, build_cell_spec = ExperimentSpec.build, EvalSpec.build_cell_spec

        def timed_build(spec, *args, **kwargs):
            system = build(spec, *args, **kwargs)
            if self.built is None:
                self.built = time.perf_counter()
                self.trace = system.trace
                simulator = system.simulator
                run_until = simulator.run_until

                def timed_round(*a, **kw):
                    result = run_until(*a, **kw)
                    self.round_ends.append(time.perf_counter())
                    return result

                simulator.run_until = timed_round
            return system

        def timed_cell_spec(spec, *args, **kwargs):
            cell_spec = build_cell_spec(spec, *args, **kwargs)
            self.cell_specs.append(time.perf_counter())
            return cell_spec

        ExperimentSpec.build, EvalSpec.build_cell_spec = timed_build, timed_cell_spec
        try:
            yield
        finally:
            ExperimentSpec.build, EvalSpec.build_cell_spec = build, build_cell_spec


def observe(argv, tracer, entry) -> Observer:
    """Run ``repro.cli.main(argv)`` in this process under the wrappers."""
    observer = Observer()
    root = nullcontext() if tracer is None else tracer.root(entry)
    with root, ExitStack() as stack:
        with nullcontext() if tracer is None else tracer.span("import"):
            import repro.cli

            stack.enter_context(observer.attached())
            if tracer is not None:
                from bench.trace import instrument_program

                instrument_program(tracer)
                # Unwrapped before the observer lets go of the classes.
                stack.callback(tracer.close)
        observer.code = repro.cli.main([str(arg) for arg in argv], out=io.StringIO())
        observer.end = time.perf_counter()
    return observer


def trace_digest(trace) -> str:
    """sha256 over the welfare, server_load and loads columns."""
    digest = hashlib.sha256()
    for column in (trace.welfare, trace.server_load, trace.loads):
        digest.update(column.tobytes())
    return digest.hexdigest()


def check_trace(trace, checks: Checks) -> None:
    """Per-round invariants of a simulator trace."""
    welfare = trace.welfare
    supply = trace.capacities.sum(axis=1)
    bad = ~((welfare >= 0.0) & (welfare <= supply * (1.0 + 1e-9)))
    checks.add(int(bad.sum()), welfare.size,
               "round welfare outside [0, sum of capacities]")
    bad = trace.loads.sum(axis=1) != trace.online_peers
    checks.add(int(bad.sum()), bad.size, "round helper loads do not sum to online peers")


def sim_record(args, observer: Observer, checks: Checks) -> dict:
    trace = observer.trace
    if trace is None:
        raise RuntimeError("repro run built no system")
    ends = observer.round_ends
    if len(ends) != trace.num_rounds:
        raise RuntimeError(f"{len(ends)} round timestamps for {trace.num_rounds} rounds")
    check_trace(trace, checks)
    # Timed in equal blocks after the warm-up; the parent takes the median
    # block, which resists bursts of load from outside the process.
    per_block, rest = divmod(trace.num_rounds - args.warmup, TIMED_BLOCKS)
    if rest or not per_block or not args.warmup:
        raise ValueError(f"{trace.num_rounds} rounds after a warm-up of {args.warmup} "
                         f"do not split into {TIMED_BLOCKS} equal blocks")
    bounds = ends[args.warmup - 1::per_block]
    return {
        "ready_at": observer.built,
        "blocks": [[a, b, per_block] for a, b in zip(bounds, bounds[1:])],
        "rounds": trace.num_rounds,
        "mean_online_peers": float(trace.online_peers[args.warmup:].mean()),
        "digest": trace_digest(trace),
    }


def eval_record(args, observer: Observer, checks: Checks) -> dict:
    result = json.loads(Path(args.output).read_text())
    cells = result["cells"]
    done = [cell for cell in cells if cell is not None]
    checks.add(len(cells) - len(done), len(cells), "eval cells missing")
    checks.add(len(result["failures"]), max(1, len(result["failures"])),
               "eval reported failures")
    finite = all(
        math.isfinite(value)
        for cell in done
        for value in cell["metrics"].values()
        if isinstance(value, float)
    )
    checks.add(int(not finite), 1, "eval metrics not finite")
    # `repro eval` builds and validates every cell spec before it runs one.
    ready = observer.cell_specs[len(cells) - 1]
    rounds = sum(cell["metrics"]["rounds"] for cell in done)
    return {"ready_at": ready, "blocks": [[ready, observer.end, rounds]]}


def repro_argv(args) -> list:
    """The ``repro`` command line one mode runs."""
    if args.mode == "sim":
        return ["run", "--spec", args.spec, "--store", args.store, "--workers", "1"]
    if args.mode == "eval":
        return ["eval", "--spec", args.spec, "--workers", "1", "--store", args.store,
                "--format", "json", "--output", args.output]
    return args.argv


RECORDS = {"sim": sim_record, "eval": eval_record}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="resume: the repro command follows a '--'",
    )
    parser.add_argument("mode", choices=("sim", "eval", "resume"))
    parser.add_argument("--out", required=True, type=Path,
                        help="where the JSON record goes")
    parser.add_argument("--spec", help="the generated spec file (sim, eval)")
    parser.add_argument("--store", help="the fresh results store (sim, eval)")
    parser.add_argument("--warmup", type=int, default=0,
                        help="untimed leading rounds (sim)")
    parser.add_argument("--output", help="where repro eval writes its JSON (eval)")
    parser.add_argument("--trace", action="store_true",
                        help="record spans (resume always does)")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    return args


def main(argv=None, entry=None) -> int:
    """Run one mode; ``entry`` is when the process started (default: now,
    after parsing ``argv``)."""
    args = parse_args(argv)
    tracer = None
    if args.trace or args.mode == "resume":
        from bench.trace import Tracer

        tracer = Tracer()
    entry = time.perf_counter() if entry is None else entry
    argv = repro_argv(args)
    observer = observe(argv, tracer, entry)
    peak = _peak_rss_mb()
    checks = Checks()
    checks.add(int(observer.code != 0), 1, f"repro {argv[0]} exited {observer.code}")
    record = {"repro_file": sys.modules["repro"].__file__, "peak_rss_mb": peak,
              "entry_at": entry}
    if args.mode in RECORDS:
        record.update(RECORDS[args.mode](args, observer, checks))
    record.update(checks.record())
    if tracer is not None:
        record["trace"] = tracer.totals()
        spans = args.out.with_suffix(".spans.json")
        spans.write_text(json.dumps(tracer.span_records(entry)))
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], entry=ENTRY))
