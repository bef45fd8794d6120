"""Command-line interface: reproduce paper figures and run custom scenarios.

Usage::

    python -m repro figure fig1 [--seed 0]
    python -m repro figure all
    python -m repro scenario --peers 30 --helpers 5 --stages 2000 --seed 1
    python -m repro run --set topology.num_peers=100000 --workers 4
    python -m repro run --spec examples/smoke.json
    python -m repro run --spec examples/smoke.json --set backend=scalar
    python -m repro run --set topology.num_peers=500 --set churn.arrival_rate=2.0 \\
        --set churn.mean_lifetime=50.0 --dump-spec
    python -m repro run --spec sweep.json --workers 8 --store results/ \\
        --set execution.max_retries=2
    python -m repro sweep --spec sweep.json --workers 8 --store results/ --resume
    python -m repro profile --spec examples/smoke.json --set rounds=40
    python -m repro eval --set 'scenarios=["oscillating_capacity","flash_storm"]' \\
        --set 'learners=["rths","sticky"]' --set window=25
    python -m repro eval --spec examples/eval_matrix.json --format markdown
    python -m repro store ls results/
    python -m repro store gc results/ --dry-run
    python -m repro list

``figure`` regenerates one (or all) of the paper's figures and prints the
same text tables the benchmark harness writes to ``benchmarks/output/``.
``scenario`` runs an ad-hoc helper-selection experiment (bare repeated
game, vectorized population) and prints the headline metrics.  ``run``
executes the *full streaming system* — channels, helpers, churn, origin
server — on either the scalar (``repro.sim``) or the vectorized
(``repro.runtime``) backend, optionally fanning replications across worker
processes.  ``eval`` runs a prequential learner × scenario comparison
matrix (see :mod:`repro.eval`) and prints the per-cell metric table.

``run``, ``sweep`` and ``profile`` build an
:class:`~repro.spec.ExperimentSpec`, ``eval`` an
:class:`~repro.eval.EvalSpec`, the same way: load ``--spec path.json`` (or
start from the spec defaults), then apply every ``--set PATH=VALUE`` in
command-line order.  PATH is a dotted key of the ``--dump-spec`` output,
so ``--dump-spec`` lists every PATH there is.  VALUE is JSON, as in a spec
file: ``2`` is an int and ``2.0`` a float, and the result digest sees the
difference; a VALUE that does not parse as JSON is taken as a plain string
(``--set backend=scalar``).  Component names resolve through the
:mod:`repro.spec` registries, so plug-in learners and capacity backends
are settable too, and an invalid spec (an unknown path or name, float32
with the scalar backend, a churn lifetime without arrivals) fails before
anything runs, with one ``repro: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.reporting import render_table
from repro.spec import (
    CAPACITY_BACKENDS,
    CAPACITY_TRANSFORMS,
    LEARNERS,
    METRICS,
    SCENARIOS,
    ExperimentSpec,
    SweepSpec,
)
from repro.spec.model import apply_overrides
from repro.telemetry import (
    merge_snapshots,
    render_snapshot,
    round_phase_shares,
    sink_names,
)
from repro.util.logconfig import LOG_LEVELS, configure_logging

FIGURE_DESCRIPTIONS = {
    "fig1": "worst-player regret decay (large scale)",
    "fig2": "RTHS welfare vs. centralized MDP optimum (N=10, H=4)",
    "fig3": "helper load distribution",
    "fig4": "per-peer bandwidth fairness",
    "fig5": "server workload vs. minimum bandwidth deficit",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Decentralized Adaptive Helper Selection in "
        "Multi-channel P2P Streaming Systems' (ICDCS 2014).",
    )
    parser.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default=None,
        help="attach a stderr handler to the 'repro' logger hierarchy at "
        "this level (library default: emit but never configure handlers)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument(
        "which",
        choices=sorted(FIGURE_DESCRIPTIONS) + ["all"],
        help="figure id, or 'all'",
    )
    fig.add_argument("--seed", type=int, default=0)

    scen = sub.add_parser("scenario", help="run a custom scenario")
    scen.add_argument("--peers", type=int, default=20)
    scen.add_argument("--helpers", type=int, default=4)
    scen.add_argument("--stages", type=int, default=2000)
    scen.add_argument("--seed", type=int, default=0)
    scen.add_argument("--epsilon", type=float, default=0.05)
    scen.add_argument("--delta", type=float, default=0.1)
    scen.add_argument("--mu", type=float, default=None)
    scen.add_argument(
        "--stay", type=float, default=0.9,
        help="bandwidth chain stay-probability",
    )

    runp = sub.add_parser(
        "run",
        help="run the full streaming system (scalar or vectorized backend)",
    )
    _add_spec_flags(runp, "ExperimentSpec", dump=True)
    runp.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="SINK",
        help="enable instrumentation for the run and print a merged "
        "summary; the optional sink reference 'name[:arg]' over "
        f"{{{', '.join(sink_names())}}} additionally streams snapshots "
        "there (e.g. --telemetry=jsonl:run.jsonl)",
    )
    runp.add_argument(
        "--replications", type=int, default=1,
        help="independent repetitions (deterministically seeded)",
    )
    runp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the replications",
    )
    _add_store_flags(runp)

    swp = sub.add_parser(
        "sweep",
        help="fan a spec's sweep grid across workers and print the "
        "per-cell metric table",
    )
    _add_spec_flags(swp, "ExperimentSpec")
    swp.add_argument(
        "--replications", type=int, default=None,
        help="override the spec's replication count",
    )
    swp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep cells",
    )
    _add_store_flags(swp)

    evalp = sub.add_parser(
        "eval",
        help="run a prequential learner x scenario evaluation matrix and "
        "print the per-cell metric table",
    )
    _add_spec_flags(evalp, "EvalSpec", dump=True)
    evalp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the matrix cells",
    )
    evalp.add_argument(
        "--format",
        choices=["table", "markdown", "json"],
        default="table",
        help="result rendering (default: aligned text table)",
    )
    evalp.add_argument(
        "--output", "-o",
        default=None,
        metavar="PATH",
        help="write the rendered result to PATH instead of stdout",
    )
    _add_store_flags(evalp)

    storep = sub.add_parser(
        "store",
        help="inspect or maintain a content-addressed results store",
    )
    storep.add_argument(
        "op", choices=["ls", "verify", "gc"],
        help="ls: list committed entries; verify: full checksum sweep "
        "(corrupt entries are quarantined); gc: reclaim torn commits, "
        "quarantine, and (with --keep-spec) stale spec generations",
    )
    storep.add_argument("dir", metavar="DIR", help="store directory")
    storep.add_argument(
        "--keep-spec",
        action="append",
        default=None,
        metavar="DIGEST",
        help="gc only: keep entries of this spec digest (repeatable); "
        "all other spec generations are removed",
    )
    storep.add_argument(
        "--no-quarantine",
        action="store_true",
        help="verify only: report corrupt entries without moving them "
        "aside",
    )
    storep.add_argument(
        "--dry-run",
        action="store_true",
        help="gc only: report what would be reclaimed without removing "
        "anything",
    )

    prof = sub.add_parser(
        "profile",
        help="run one spec with telemetry on and print the per-phase "
        "round-loop decomposition",
    )
    _add_spec_flags(prof, "ExperimentSpec")
    prof.add_argument(
        "--output", "-o",
        default=None,
        metavar="PATH",
        help="also append snapshot records to a JSONL file at PATH",
    )
    prof.add_argument(
        "--flush-interval", type=int, default=0,
        help="emit an intermediate snapshot every this many rounds "
        "(0 = final snapshot only)",
    )
    prof.add_argument(
        "--sample-period", type=int, default=100,
        help="record process gauges (RSS, GC) every this many rounds "
        "(0 = off; default 100)",
    )

    sub.add_parser(
        "list", help="list the available figures and registered components"
    )
    return parser


def _add_spec_flags(
    cmd: argparse.ArgumentParser, kind: str, dump: bool = False
) -> None:
    """Register ``--spec`` and ``--set`` (and ``--dump-spec`` if ``dump``)."""
    cmd.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help=f"load the {kind} from a JSON file (default: the {kind} "
        "defaults)",
    )
    cmd.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override one spec field (repeatable, applied in order): PATH "
        f"is a dotted key of the {kind} JSON that --dump-spec prints, VALUE "
        "is JSON (2 is an int, 2.0 a float) or else a plain string",
    )
    if dump:
        cmd.add_argument(
            "--dump-spec",
            action="store_true",
            help=f"print the compiled {kind} JSON and exit without running",
        )


def _add_store_flags(runp: argparse.ArgumentParser) -> None:
    """Register the results-store flags (``run``, ``sweep`` and ``eval``)."""
    runp.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="commit every completed cell to a content-addressed results "
        "store at DIR (created if missing); committed cells are cache "
        "hits on later runs, so interrupted sweeps resume for free",
    )
    runp.add_argument(
        "--resume",
        action="store_true",
        help="require --store DIR to already exist from a previous run "
        "(guards resume jobs against a mistyped fresh path)",
    )


def compile_spec(parser: argparse.ArgumentParser, args, spec_cls, **defaults):
    """Load ``--spec`` (else ``spec_cls(**defaults)``) and apply ``--set``.

    Every ``--set PATH=VALUE`` item is applied in command-line order, so a
    repeated PATH takes its last VALUE.  All spec validation — unknown
    paths or registry names, illegal combinations, malformed JSON —
    happens here, immediately after parsing, and reports through
    ``parser.error`` (one line, exit code 2) instead of surfacing deep
    inside system construction.
    """
    overrides = {}
    for item in args.set:
        path, sep, text = item.partition("=")
        if not sep or not path:
            parser.error(f"--set expects PATH=VALUE, got {item!r}")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        overrides.pop(path, None)  # a repeated path applies at its last place
        overrides[path] = value
    try:
        spec = spec_cls(**defaults) if args.spec is None else spec_cls.load(args.spec)
        if overrides:
            spec = spec_cls.from_dict(apply_overrides(spec.to_dict(), overrides))
    except (OSError, ValueError, KeyError) as exc:
        parser.error(str(exc))
    return spec


def _open_store(parser, args):
    """Build the ``ResultsStore`` requested by ``--store``/``--resume``."""
    import os

    from repro.store import ResultsStore, StoreError

    if args.store is None:
        if args.resume:
            parser.error("--resume requires --store DIR")
        return None
    if args.resume and not os.path.isdir(args.store):
        parser.error(
            f"--resume: store {args.store!r} does not exist; drop --resume "
            "to start a fresh store there"
        )
    try:
        return ResultsStore(args.store)
    except StoreError as exc:
        parser.error(str(exc))


def _run_system(parser, args, out) -> None:
    from repro.analysis.parallel import ParallelRunner
    from repro.analysis.sweeps import SweepCell
    from repro.spec import run_spec_cell

    if args.replications < 1:
        parser.error("--replications must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    store = _open_store(parser, args)
    spec = compile_spec(parser, args, ExperimentSpec, name="cli-run")
    if args.telemetry is not None:
        sinks = [args.telemetry] if args.telemetry else []
        try:
            spec = spec.with_overrides(
                {"telemetry.enabled": True, "telemetry.sinks": sinks}
            )
        except ValueError as exc:
            parser.error(str(exc))
    if args.dump_spec:
        print(spec.to_json(), file=out)
        return
    # The spec file's sweep section is honored; --replications > 1 adds
    # (or overrides) the replication count on top of its grid.
    sweep = spec.sweep_spec
    if args.replications > 1:
        sweep = SweepSpec(
            grid=sweep.grid if sweep is not None else {},
            replications=args.replications,
        )
    replications = sweep.replications if sweep is not None else 1
    if sweep is None and store is None:
        # No sweep, one replication: the run IS the spec — execute it
        # with the spec's own seed so `repro run --spec x.json`
        # reproduces `spec.run()` (and the golden expectations) exactly.
        cells = [
            SweepCell(
                parameters={},
                metrics=run_spec_cell(spec.to_dict(), {}, spec.seed),
            )
        ]
    else:
        # A store routes even single runs through the runner: that is
        # where commit-on-complete and cache-consult live.
        runner = ParallelRunner(workers=args.workers)
        result = spec.sweep(runner=runner, sweep=sweep, store=store)
        cells = [cell for cell in result.cells if cell is not None]
        _report_failures(result, out)
        if not cells:
            print("error: every sweep cell failed", file=sys.stderr)
            return 1
    topo = spec.topology
    print(
        f"run: backend={spec.backend} learner={spec.learner.name} "
        f"N={topo.num_peers} H={topo.num_helpers} C={topo.num_channels} "
        f"rounds={spec.rounds} replications={replications} "
        f"cells={len(cells)} workers={args.workers}",
        file=out,
    )
    # Scalars only: dict payloads (the telemetry snapshot) and array
    # metrics have no mean/std row.  np.ndim(dict) == 0, so an explicit
    # scalar check is required.
    metric_names = [
        name for name in cells[0].metrics
        if isinstance(cells[0].metrics[name], (int, float, np.number))
    ]
    values = {
        name: np.array([cell.metrics[name] for cell in cells])
        for name in metric_names
    }
    rows = [
        [name, float(values[name].mean()), float(values[name].std())]
        for name in metric_names
    ]
    print(render_table(["metric", "mean", "std"], rows), file=out)
    merged = merge_snapshots(
        cell.metrics.get("telemetry") for cell in cells
    )
    if merged is not None:
        print(file=out)
        print(render_snapshot(merged), file=out)
    return 0


def _report_failures(result, out) -> None:
    """Print one structured line per recorded cell failure."""
    for failure in result.failures:
        print(f"warning: {failure.describe()}", file=out)


def _run_sweep_cmd(parser, args, out) -> int:
    """``repro sweep``: fan the spec's grid out, print the cell table."""
    from repro.analysis.parallel import ParallelRunner

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    store = _open_store(parser, args)
    spec = compile_spec(parser, args, ExperimentSpec, name="cli-run")
    sweep = spec.sweep_spec
    if args.replications is not None:
        if args.replications < 1:
            parser.error("--replications must be >= 1")
        sweep = SweepSpec(
            grid=sweep.grid if sweep is not None else {},
            replications=args.replications,
        )
    if sweep is None or (not sweep.grid and sweep.replications <= 1):
        parser.error(
            "nothing to sweep: give --spec a file with a sweep section "
            "or pass --replications N"
        )
    runner = ParallelRunner(workers=args.workers)
    result = spec.sweep(runner=runner, sweep=sweep, store=store)
    print(
        f"sweep: spec={spec.result_digest()} cells={len(result.cells)} "
        f"workers={args.workers}"
        + (f" store={args.store}" if store is not None else ""),
        file=out,
    )
    _report_failures(result, out)
    if result.completed_cells():
        print(result.to_table(), file=out)
    else:
        print("error: every sweep cell failed", file=sys.stderr)
        return 1
    return 0


def _run_eval(parser, args, out) -> int:
    """``repro eval``: run the matrix, print/write the metric table."""
    from repro.eval import EvalSpec, Evaluator

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    store = _open_store(parser, args)
    spec = compile_spec(parser, args, EvalSpec)
    if args.dump_spec:
        print(spec.to_json(), file=out)
        return 0
    if not spec.scenarios or not spec.learners:
        parser.error(
            "nothing to evaluate: give --spec a file naming scenarios and "
            "learners, or --set 'scenarios=[\"NAME\", ...]'"
        )
    try:
        result = Evaluator(workers=args.workers).run(spec, store=store)
    except ValueError as exc:
        # Fail-fast cell-build errors (scenario option typos, learners
        # missing the pinned backend) name the offending cell.
        parser.error(str(exc))
    print(
        f"eval: spec={spec.eval_digest()} cells={len(result.cells)} "
        f"workers={args.workers}"
        + (f" store={args.store}" if store is not None else ""),
        file=out,
    )
    _report_failures(result, out)
    if not result.completed_cells():
        print("error: every eval cell failed", file=sys.stderr)
        return 1
    if args.format == "json":
        rendered = result.to_json()
    elif args.format == "markdown":
        rendered = result.to_markdown()
    else:
        rendered = result.to_table()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.output}", file=out)
    else:
        print(rendered, file=out)
    return 0


def _run_store(args, out) -> int:
    """``repro store {ls,verify,gc}``: results-store maintenance."""
    from repro.store import ResultsStore, StoreError

    try:
        store = ResultsStore(args.dir, create=False)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.op == "ls":
        rows = store.ls()
        for row in rows:
            if row["status"] == "ok":
                print(
                    f"{row['spec_digest']}/{row['cell_digest']}  "
                    f"metrics={row['metrics']} arrays={row['arrays']} "
                    f"bytes={row['bytes']} params={row['params']} "
                    f"seed={row['seed']}",
                    file=out,
                )
            else:
                print(
                    f"{row['spec_digest']}/{row['cell_digest']}  "
                    f"CORRUPT: {row['detail']}",
                    file=out,
                )
        print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}", file=out)
        return 0
    if args.op == "verify":
        report = store.verify(quarantine=not args.no_quarantine)
        for item in report["corrupt"]:
            print(
                f"corrupt: {item['spec_digest']}/{item['cell_digest']}: "
                f"{item['reason']}",
                file=out,
            )
        print(
            f"checked={report['checked']} ok={report['ok']} "
            f"corrupt={len(report['corrupt'])} "
            f"quarantined={report['quarantined']}",
            file=out,
        )
        return 1 if report["corrupt"] else 0
    report = store.gc(keep_specs=args.keep_spec, dry_run=args.dry_run)
    label = "gc (dry-run): would remove" if args.dry_run else "gc:"
    print(
        f"{label} tmp_removed={report['tmp_removed']} "
        f"quarantine_removed={report['quarantine_removed']} "
        f"entries_removed={report['entries_removed']} "
        f"bytes_freed={report['bytes_freed']}",
        file=out,
    )
    return 0


def _run_profile(parser, args, out) -> None:
    """``repro profile``: one instrumented run, phase table to stdout."""
    if args.flush_interval < 0:
        parser.error("--flush-interval must be >= 0")
    if args.sample_period < 0:
        parser.error("--sample-period must be >= 0")
    spec = compile_spec(parser, args, ExperimentSpec, name="cli-run")
    sinks = [] if args.output is None else [f"jsonl:{args.output}"]
    try:
        spec = spec.with_overrides(
            {
                "telemetry.enabled": True,
                "telemetry.sinks": sinks,
                "telemetry.flush_interval": args.flush_interval,
                "telemetry.sample_period": args.sample_period,
            }
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = spec.run()
    topo = spec.topology
    print(
        f"profile: spec={spec.spec_digest()} backend={spec.backend} "
        f"learner={spec.learner.name} N={topo.num_peers} "
        f"H={topo.num_helpers} C={topo.num_channels} rounds={spec.rounds}",
        file=out,
    )
    print(render_snapshot(result.telemetry), file=out)
    shares = round_phase_shares(result.telemetry)
    if shares is not None and shares["coverage"] < 0.9:
        print(
            f"warning: named round phases cover only "
            f"{shares['coverage']:.1%} of round.total — a hot unnamed "
            "region is hiding",
            file=out,
        )
    if args.output is not None:
        print(f"snapshots appended to {args.output}", file=out)


def _run_figure(which: str, seed: int, out) -> None:
    from repro.analysis.experiments import ALL_FIGURES

    names = sorted(ALL_FIGURES) if which == "all" else [which]
    for name in names:
        result = ALL_FIGURES[name](seed=seed)
        print(f"=== {name}: {FIGURE_DESCRIPTIONS[name]} ===", file=out)
        print(result.text, file=out)
        print(file=out)


def _run_scenario(args, out) -> None:
    from repro.core import LearnerPopulation, empirical_ce_regret
    from repro.mdp import solve_symmetric_optimum
    from repro.metrics import jain_index, load_balance_report
    from repro.sim import paper_bandwidth_process

    process = paper_bandwidth_process(
        args.helpers, stay_probability=args.stay, rng=args.seed
    )
    population = LearnerPopulation(
        args.peers,
        args.helpers,
        epsilon=args.epsilon,
        delta=args.delta,
        mu=args.mu,
        u_max=900.0,
        rng=args.seed + 1,
    )
    trajectory = population.run(process, args.stages)
    optimum = solve_symmetric_optimum(process.chains, args.peers).value
    tail = trajectory.tail(0.25)
    balance = load_balance_report(trajectory)
    per_peer = tail.utilities.mean(axis=0)
    steady = float(tail.welfare.mean())
    print(f"scenario: N={args.peers} H={args.helpers} stages={args.stages} "
          f"eps={args.epsilon} delta={args.delta} "
          f"mu={'default' if args.mu is None else args.mu}", file=out)
    print(f"MDP optimum          : {optimum:10.1f} kbit/s", file=out)
    print(f"steady welfare       : {steady:10.1f} kbit/s "
          f"({steady / optimum:.1%})", file=out)
    print(f"CE regret (norm.)    : "
          f"{empirical_ce_regret(trajectory, u_max=900.0):10.4f}", file=out)
    print(f"Jain of helper loads : {balance.jain:10.4f}", file=out)
    print(f"Jain of peer rates   : {jain_index(per_peer):10.4f}", file=out)


def _doc_summary(obj) -> str:
    """First docstring line of a registered factory ('' when undocumented)."""
    doc = getattr(obj, "__doc__", None) or ""
    return doc.strip().splitlines()[0].strip() if doc.strip() else ""


def _factory_options(factory) -> str:
    """The keyword options a registry factory accepts, with their defaults."""
    import inspect

    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return ""
    return ", ".join(
        f"{name}={param.default}"
        for name, param in signature.parameters.items()
        if param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        and param.default is not param.empty
    )


def _run_list(out) -> None:
    for name in sorted(FIGURE_DESCRIPTIONS):
        print(f"{name}: {FIGURE_DESCRIPTIONS[name]}", file=out)
    print(file=out)
    print("registered components (repro.spec registries):", file=out)
    print("  scenarios:", file=out)
    for name in SCENARIOS.names():
        factory = SCENARIOS.get(name)
        summary = _doc_summary(factory)
        print(f"    {name}: {summary}" if summary else f"    {name}", file=out)
        options = _factory_options(factory)
        if options:
            print(f"      options: {options}", file=out)
    print("  learners:", file=out)
    for name in LEARNERS.names():
        entry = LEARNERS.get(name)
        flags = [
            f"min_actions={entry.min_actions}",
            *(["sparse"] if entry.sparse else []),
        ]
        line = f"    {name} [{', '.join(flags)}]"
        if entry.description:
            line += f": {entry.description}"
        print(line, file=out)
    print("  capacity backends:", file=out)
    for name in CAPACITY_BACKENDS.names():
        backend = CAPACITY_BACKENDS.get(name)
        summary = _doc_summary(backend)
        print(f"    {name}: {summary}" if summary else f"    {name}", file=out)
    print("  capacity transforms:", file=out)
    for name in CAPACITY_TRANSFORMS.names():
        entry = CAPACITY_TRANSFORMS.get(name)
        summary = entry.description or _doc_summary(entry.factory)
        print(f"    {name}: {summary}" if summary else f"    {name}", file=out)
        options = _factory_options(entry.factory)
        if options:
            print(f"      options: {options}", file=out)
    print("  helper classes:", file=out)
    from repro.network.classes import HELPER_CLASSES

    for name in HELPER_CLASSES.names():
        profile = HELPER_CLASSES.get(name)
        line = (
            f"    {name} [scale={profile.capacity_scale}, "
            f"latency={profile.latency_ms}ms, jitter={profile.jitter_ms}ms, "
            f"loss={profile.loss_rate}]"
        )
        if profile.description:
            line += f": {profile.description}"
        print(line, file=out)
    print(f"  metrics: {', '.join(METRICS.names())}", file=out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    if args.command == "profile":
        _run_profile(parser, args, out)
        return 0
    if args.command == "list":
        _run_list(out)
        return 0
    if args.command in ("figure", "scenario"):
        # A bad flag value (``--peers 0``, ``--seed -1``) surfaces as a
        # ValueError from the constructors it reaches: one usage line.
        try:
            if args.command == "figure":
                _run_figure(args.which, args.seed, out)
            else:
                _run_scenario(args, out)
        except ValueError as exc:
            parser.error(str(exc))
        return 0
    if args.command == "store":
        return _run_store(args, out)
    if args.command in ("run", "sweep", "eval"):
        try:
            if args.command == "run":
                return _run_system(parser, args, out) or 0
            if args.command == "eval":
                return _run_eval(parser, args, out)
            return _run_sweep_cmd(parser, args, out)
        except RuntimeError as exc:
            # A SweepError comes from the runner, which has imported
            # its module by then: the success path never loads it.
            from repro.analysis.supervision import SweepError

            if not isinstance(exc, SweepError):
                raise
            # One structured line (spec digest + cell index + params)
            # instead of a worker traceback dump; the full trace stays
            # available under --log-level debug.
            if args.log_level == "debug":
                import traceback

                traceback.print_exc(file=sys.stderr)
            print(f"error: {exc.failure.describe()}", file=sys.stderr)
            return 1
    return 2  # unreachable: argparse enforces the choices
