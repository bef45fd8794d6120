"""Round-loop throughput: scalar StreamingSystem vs. the vectorized runtime.

Builds the same full multi-channel system (R2HS learners by default) on
both backends, drives both through an identical recorded bandwidth trace,
and times the learning-round loop.  The headline number is the per-round
speedup at 10k peers / 100 helpers — the scale gate every future scaling
PR benchmarks against.

``--helpers-scale`` switches to the *environment*-scaling study instead:
for each H in the grid it times capacity-process advancement (scalar chain
objects vs. the vectorized engine) and the vectorized system's end-to-end
round with each environment backend, reporting the capacity-process share
of round time.  Helpers partition across channels (~50 per channel, like
``massive_scale_spec``) so the per-channel regret tensors stay sane at
H in the thousands.

``--capacity-guard`` is the CI regression gate: a quick H=1000 advancement
comparison that exits non-zero if the vectorized capacity backend is not
faster than the scalar one.

``--memory-guard`` is the giant-run gate for the sparse top-k regret
banks: it (1) asserts small-H trace identity between the dense bank and a
``topk`` bank with ``k = H``, (2) shows the dense bank is infeasible at
the guard scale (20k peers x 2000 helpers by default — its predicted
regret-tensor footprint alone blows the RSS budget, so it is skipped),
and (3) runs the topk bank at that scale end-to-end, failing unless peak
RSS stays under ``--rss-budget-mb`` and the round loop under
``--round-budget-s``.

``--channels-scale`` is the *channel*-scaling study for the fused learner
bank: for each C in the grid it builds the same system (two helpers per
channel, so only the channel count — the dispatch structure — varies)
once on the fused ``grouped`` bank and once on the ``per_channel``
reference (private per-channel banks behind the same API) and times the
round loop.  ``--channels-guard`` is the CI gate: at C = 50 / 10k peers
the fused bank must beat the per-channel dispatch (the two are
bit-identical, so the comparison is pure overhead).

Usage::

    python benchmarks/bench_runtime_scale.py            # full: 10k peers
    python benchmarks/bench_runtime_scale.py --quick    # CI smoke: 2k peers
    python benchmarks/bench_runtime_scale.py --helpers-scale
    python benchmarks/bench_runtime_scale.py --channels-scale
    python benchmarks/bench_runtime_scale.py --capacity-guard
    python benchmarks/bench_runtime_scale.py --channels-guard
    python benchmarks/bench_runtime_scale.py --memory-guard

The JSON report lands in ``BENCH_runtime.json`` (repo root by default) as a
*trajectory* — ``{"schema": 3, "runs": [...]}``, one entry appended per
invocation (legacy single-snapshot files are wrapped on first append).
Every run record carries a ``machine`` block (CPU count, python/numpy
versions, platform) so trajectory points from different environments are
comparable.  A text table lands in ``benchmarks/output/``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np  # noqa: E402

from repro.core.r2hs import R2HSLearner  # noqa: E402
from repro.runtime import (  # noqa: E402
    PerChannelGroupedBank,
    RegretBank,
    VectorizedStreamingSystem,
    bank_factory,
    build_per_channel_banks,
)
from repro.sim import (  # noqa: E402
    StreamingSystem,
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.spec import (  # noqa: E402
    CapacitySpec,
    ExperimentSpec,
    LearnerSpec,
    TopologySpec,
)

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
U_MAX = 900.0

#: Target helpers per channel in the helpers-scale study (mirrors
#: massive_scale_spec's partitioning; keeps per-channel (N, H, H)
#: regret tensors feasible at H in the thousands).
HELPERS_PER_CHANNEL = 50


def _spec(
    peers: int,
    helpers: int,
    channels: int = 1,
    capacity: str = "auto",
    dtype: str = "float64",
) -> ExperimentSpec:
    """The system under test: ``peers`` viewers at 100 kbit/s each.

    ``capacity`` names the environment a system given no capacity
    process builds; ``dtype`` is the peer store's float precision.
    """
    return ExperimentSpec(
        topology=TopologySpec(
            num_peers=peers,
            num_helpers=helpers,
            num_channels=channels,
            channel_bitrates=100.0,
        ),
        capacity=CapacitySpec(backend=capacity),
        learner=LearnerSpec(dtype=dtype),
    )


def _build(backend: str, spec: ExperimentSpec, shared: np.ndarray, seed: int):
    process = TraceCapacityProcess(shared.copy())
    if backend == "vectorized":
        return VectorizedStreamingSystem(
            spec,
            bank_factory("r2hs", u_max=U_MAX),
            rng=seed,
            capacity_process=process,
        )
    return StreamingSystem(
        spec,
        lambda h, rng: R2HSLearner(h, rng=rng, u_max=U_MAX),
        rng=seed,
        capacity_process=process,
    )


def time_backends(
    backends: list,
    spec: ExperimentSpec,
    shared: np.ndarray,
    rounds: int,
    warmup: int,
    seed: int,
    blocks: int = 3,
) -> dict:
    """Construct, warm up, and time the round loop of each backend.

    Each backend is timed over ``blocks`` blocks of ``rounds`` rounds,
    blocks alternating between backends so that machine-load drift hits
    both alike; the per-backend figure is the *fastest* block (the
    standard noise-robust estimator — slow blocks measure scheduler steal,
    not the code).  Blocks rather than per-round interleaving keep each
    backend's working set cache-warm while it is being timed.
    """
    systems = {}
    results = {}
    for backend in backends:
        gc.collect()
        t0 = time.perf_counter()
        systems[backend] = _build(backend, spec, shared, seed)
        build_s = time.perf_counter() - t0
        if warmup:
            systems[backend].run(warmup)
        results[backend] = {
            "backend": backend,
            "build_s": build_s,
            "block_s": [],
        }
    for _ in range(blocks):
        for backend, system in systems.items():
            t0 = time.perf_counter()
            system.run(rounds)
            results[backend]["block_s"].append(time.perf_counter() - t0)
    for backend, system in systems.items():
        r = results[backend]
        best = min(r["block_s"])
        r["run_s"] = best
        r["seconds_per_round"] = best / rounds
        r["rounds_per_s"] = rounds / best
        r["final_welfare"] = float(system.trace.welfare[-1])
        r["mean_server_load"] = float(system.trace.server_load.mean())
    systems.clear()
    gc.collect()
    return results


def bench_capacity_advance(num_helpers: int, seed: int) -> dict:
    """Seconds per environment stage (capacities + advance), per backend."""
    steps = max(5, min(300, 300_000 // max(1, num_helpers)))
    out = {"steps": steps}
    for backend in ("scalar", "vectorized"):
        process = paper_bandwidth_process(
            num_helpers, rng=seed, backend=backend
        )
        for _ in range(3):  # warmup
            process.capacities()
            process.advance()
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(steps):
            process.capacities()
            process.advance()
        out[backend] = (time.perf_counter() - t0) / steps
    out["speedup"] = out["scalar"] / out["vectorized"]
    return out


def bench_helpers_scale(
    helpers_grid: list, peers: int, rounds: int, seed: int
) -> list:
    """Environment-scaling study on the vectorized runtime.

    For each H: time raw capacity advancement (both backends), then the
    full system round with each environment backend, and report the
    capacity-process share of the scalar-environment round.
    """
    rows = []
    for num_helpers in helpers_grid:
        advance = bench_capacity_advance(num_helpers, seed)
        channels = max(1, num_helpers // HELPERS_PER_CHANNEL)
        round_s = {}
        for backend in ("scalar", "vectorized"):
            gc.collect()
            system = VectorizedStreamingSystem(
                _spec(peers, num_helpers, channels, capacity=backend),
                bank_factory("r2hs", u_max=U_MAX),
                rng=seed,
            )
            system.run(1)  # warmup
            t0 = time.perf_counter()
            system.run(rounds)
            round_s[backend] = (time.perf_counter() - t0) / rounds
            del system
        row = {
            "helpers": num_helpers,
            "channels": channels,
            "peers": peers,
            "env_s_per_stage": {
                "scalar": advance["scalar"],
                "vectorized": advance["vectorized"],
            },
            "env_speedup": advance["speedup"],
            "round_s": round_s,
            "round_speedup": round_s["scalar"] / round_s["vectorized"],
            "capacity_share_of_scalar_round": min(
                1.0, advance["scalar"] / round_s["scalar"]
            ),
        }
        rows.append(row)
        print(
            f"  H={num_helpers:5d} C={channels:3d}: env "
            f"{advance['scalar'] * 1e3:8.3f} -> "
            f"{advance['vectorized'] * 1e3:8.3f} ms/stage "
            f"({advance['speedup']:6.1f}x), round "
            f"{round_s['scalar'] * 1e3:8.2f} -> "
            f"{round_s['vectorized'] * 1e3:8.2f} ms "
            f"({row['round_speedup']:4.1f}x, env share "
            f"{row['capacity_share_of_scalar_round']:.0%})"
        )
    return rows


def _per_channel_r2hs(widths, rngs):
    """The per-channel reference: one private regret bank per channel."""
    return PerChannelGroupedBank(
        build_per_channel_banks(
            lambda h, rng: RegretBank(h, rng=rng, u_max=U_MAX), widths, rngs
        )
    )


def _time_engines(
    spec: ExperimentSpec, rounds: int, seed: int, blocks: int = 3
) -> dict:
    """Best-of-blocks per-round time of the fused and per-channel banks.

    Blocks alternate between the two so machine-load drift hits both
    alike (same estimator as :func:`time_backends`); both systems run the
    same seed, and the banks are bit-identical, so the measured gap is
    pure dispatch overhead.
    """
    factories = {
        "grouped": bank_factory("r2hs", u_max=U_MAX),
        "per_channel": _per_channel_r2hs,
    }
    systems = {}
    round_s = {}
    for engine, factory in factories.items():
        gc.collect()
        systems[engine] = VectorizedStreamingSystem(spec, factory, rng=seed)
        systems[engine].run(1)  # warmup
        round_s[engine] = []
    for _ in range(blocks):
        for engine, system in systems.items():
            t0 = time.perf_counter()
            system.run(rounds)
            round_s[engine].append(time.perf_counter() - t0)
    return {engine: min(blocks_s) / rounds for engine, blocks_s in round_s.items()}


def bench_channels_scale(
    channels_grid: list, peers: int, rounds: int, seed: int
) -> list:
    """Channel-scaling study: grouped vs per-channel dispatch.

    Every cell keeps two helpers per channel, so the per-channel regret
    width (and the arithmetic) is constant across the grid — the only
    thing that grows with C is the number of per-round dispatches the
    per-channel banks make, which is exactly what fusing removes.
    """
    rows = []
    for channels in channels_grid:
        round_s = _time_engines(_spec(peers, 2 * channels, channels), rounds, seed)
        row = {
            "channels": channels,
            "helpers": 2 * channels,
            "peers": peers,
            "round_s": round_s,
            "speedup": round_s["per_channel"] / round_s["grouped"],
        }
        rows.append(row)
        print(
            f"  C={channels:4d} H={2 * channels:4d}: per_channel "
            f"{round_s['per_channel'] * 1e3:8.3f} ms -> grouped "
            f"{round_s['grouped'] * 1e3:8.3f} ms/round "
            f"({row['speedup']:4.2f}x)"
        )
    return rows


def run_channels_guard(args) -> int:
    """CI gate: the fused bank must beat per-channel dispatch at C=50."""
    channels, peers = args.guard_channels, args.guard_channel_peers
    round_s = _time_engines(
        _spec(peers, 2 * channels, channels), max(3, args.rounds), args.seed
    )
    speedup = round_s["per_channel"] / round_s["grouped"]
    print(
        f"channels guard (C={channels}, N={peers}): per_channel "
        f"{round_s['per_channel'] * 1e3:.3f} ms/round, grouped "
        f"{round_s['grouped'] * 1e3:.3f} ms/round ({speedup:.2f}x)"
    )
    if speedup <= 1.0:
        print(
            "FAIL: the fused grouped bank is not faster than per-channel "
            "dispatch"
        )
        return 1
    print("OK")
    return 0


def run_network_guard(args) -> int:
    """CI gate: the link-effect layer must stay within the round budget.

    Times the C=50 / 10k-peer fused round loop twice — raw vectorized
    capacity process vs the same process wrapped in a *jittered*
    :class:`~repro.network.links.LinkEffectProcess` (jitter forces the
    per-stage RTT redraw, the wrapper's worst case) — in five blocks of
    ``--rounds`` rounds each, and fails if the wrapped loop's median
    per-block overhead exceeds ``--network-budget``.  Appends a
    ``network_guard`` point to the trajectory.
    """
    from repro.network import LinkEffectProcess

    channels, peers = args.guard_channels, args.guard_channel_peers
    helpers = 2 * channels
    rounds, blocks = max(3, args.rounds), 5
    spec = _spec(peers, helpers, channels)

    def process_for(label):
        base = paper_bandwidth_process(
            helpers, rng=args.seed, backend="vectorized"
        )
        if label == "baseline":
            return base
        return LinkEffectProcess(
            base,
            latency_ms=60.0,
            jitter_ms=10.0,
            loss_rate=0.01,
            rng=args.seed + 1,
        )

    systems, round_s = {}, {}
    for label in ("baseline", "networked"):
        gc.collect()
        systems[label] = VectorizedStreamingSystem(
            spec,
            bank_factory("r2hs", u_max=U_MAX),
            rng=args.seed,
            capacity_process=process_for(label),
        )
        systems[label].run(1)  # warmup
        round_s[label] = []
    # Each block times both loops back to back, and the loop that runs
    # first alternates, so machine-load drift and the cost of going first
    # hit both alike.  The verdict is the median over blocks of the
    # per-block overhead: one lucky or unlucky block cannot decide it.
    labels = list(systems)
    for block in range(blocks):
        for label in labels if block % 2 == 0 else labels[::-1]:
            t0 = time.perf_counter()
            systems[label].run(rounds)
            round_s[label].append(time.perf_counter() - t0)
    per_round = {
        label: min(blocks_s) / rounds for label, blocks_s in round_s.items()
    }
    block_overheads = [
        networked / baseline - 1.0
        for networked, baseline in zip(round_s["networked"], round_s["baseline"])
    ]
    overhead = float(np.median(block_overheads))
    budget = float(args.network_budget)
    print(
        f"network guard (C={channels}, N={peers}, H={helpers}): baseline "
        f"{per_round['baseline'] * 1e3:.3f} ms/round, networked "
        f"{per_round['networked'] * 1e3:.3f} ms/round (fastest blocks); "
        f"median block overhead {overhead:+.1%} vs budget {budget:.0%}"
    )
    append_run(
        args.output,
        {
            "kind": "network_guard",
            "config": {
                "peers": peers,
                "channels": channels,
                "helpers": helpers,
                "rounds": rounds,
                "seed": args.seed,
                "learner": "r2hs",
                "budget": budget,
            },
            "results": {
                "round_s": per_round,
                "block_overheads": block_overheads,
                "overhead": overhead,
            },
        },
    )
    print(f"  wrote {args.output}")
    if overhead > budget:
        print(
            f"FAIL: the link-effect layer adds {overhead:.1%} per round "
            f"(> {budget:.0%})"
        )
        return 1
    print("OK")
    return 0


def machine_context() -> dict:
    """Environment block stamped onto every run record.

    Trajectory points accumulate across laptops and CI runners; without
    the machine identity a regression and a slower machine look the same.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def append_run(path: pathlib.Path, run: dict) -> dict:
    """Append ``run`` to the JSON trajectory at ``path`` (schema 3).

    Legacy single-snapshot reports (the pre-trajectory schema: one dict
    with ``config``/``results`` at top level) are wrapped as the first
    run instead of being overwritten.  Schema 3 adds the ``machine``
    block to each appended run; earlier entries are kept as-is.
    """
    report = {"schema": 3, "runs": []}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            # Never silently discard the accumulated history: park the
            # unreadable file next to the fresh trajectory.
            backup = path.with_suffix(path.suffix + ".corrupt")
            try:
                path.replace(backup)
                print(
                    f"  warning: {path.name} is unreadable; saved aside as "
                    f"{backup.name} and starting a fresh trajectory"
                )
            except OSError:
                print(
                    f"  warning: {path.name} is unreadable; starting a "
                    "fresh trajectory"
                )
            old = None
        if isinstance(old, dict):
            if isinstance(old.get("runs"), list):
                report["runs"] = old["runs"]
            elif old:
                old.setdefault("kind", "round_loop")
                report["runs"] = [old]
    run["recorded_at"] = (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
    )
    run.setdefault("machine", machine_context())
    report["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process in MiB (Linux: ru_maxrss is KiB)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return peak / (1024 * 1024)
    return peak / 1024


def _check_topk_trace_identity(seed: int) -> dict:
    """Small-H gate: a topk bank with k = H must be trace-identical to the
    dense bank (same config, same seed, bit-for-bit round records)."""
    N, H, T = 300, 12, 40
    traces = {}
    for bank in ("dense", "topk"):
        system = VectorizedStreamingSystem(
            _spec(N, H),
            bank_factory("r2hs", u_max=U_MAX, bank=bank, topk=H),
            rng=seed,
        )
        traces[bank] = system.run(T)
    td, tt = traces["dense"], traces["topk"]
    identical = (
        np.array_equal(td.loads, tt.loads)
        and np.array_equal(td.welfare, tt.welfare)
        and np.array_equal(td.server_load, tt.server_load)
        and np.array_equal(td.capacities, tt.capacities)
    )
    return {"peers": N, "helpers": H, "rounds": T, "identical": identical}


def run_memory_guard(args) -> int:
    """CI gate for giant runs: topk fits the budget where dense cannot."""
    peers, helpers = args.guard_peers, args.guard_helpers
    k, rounds = args.guard_topk, args.guard_rounds
    budget_mb = float(args.rss_budget_mb)
    round_budget = float(args.round_budget_s)
    failures = []

    identity = _check_topk_trace_identity(args.seed)
    print(
        f"memory guard: k=H trace identity at "
        f"N={identity['peers']} H={identity['helpers']}: "
        f"{'OK' if identity['identical'] else 'FAIL'}"
    )
    if not identity["identical"]:
        failures.append("topk bank with k=H is not trace-identical to dense")

    # The dense bank's per-channel regret tensor alone (float32, one
    # channel) decides feasibility — no need to OOM the CI runner to
    # prove it.
    dense_bytes = peers * helpers * helpers * 4
    dense_mb = dense_bytes / (1024 * 1024)
    dense = {"predicted_bank_mb": dense_mb}
    if dense_mb > budget_mb:
        dense["status"] = "skipped"
        print(
            f"  dense bank : skipped — predicted (N, H, H) tensor "
            f"{dense_mb / 1024:.0f} GiB >> budget {budget_mb:.0f} MiB"
        )
    else:
        dense["status"] = "feasible"
        print(
            f"  dense bank : predicted {dense_mb:.0f} MiB fits the budget "
            "(guard scale is not in the giant regime)"
        )

    spec = _spec(peers, helpers, dtype="float32")
    gc.collect()
    t0 = time.perf_counter()
    system = VectorizedStreamingSystem(
        spec,
        bank_factory(
            "r2hs", u_max=U_MAX, dtype=np.float32, bank="topk", topk=k
        ),
        rng=args.seed,
    )
    build_s = time.perf_counter() - t0
    system.run(1)  # warmup round (first-touch allocation, promotion storm)
    t0 = time.perf_counter()
    system.run(rounds)
    per_round = (time.perf_counter() - t0) / rounds
    bank = system.banks[0]
    bank_mb = bank.population.nbytes() / (1024 * 1024)
    promotions = bank.population.promotions
    welfare = float(system.trace.welfare[-1])
    del system
    gc.collect()
    peak_mb = _peak_rss_mb()

    print(
        f"  topk bank  : N={peers} H={helpers} k={k} -> bank {bank_mb:.0f} "
        f"MiB, build {build_s:.2f} s, {per_round:.3f} s/round, "
        f"{promotions} promotions, peak RSS {peak_mb:.0f} MiB"
    )
    if peak_mb > budget_mb:
        failures.append(
            f"peak RSS {peak_mb:.0f} MiB exceeds budget {budget_mb:.0f} MiB"
        )
    if per_round > round_budget:
        failures.append(
            f"round time {per_round:.3f} s exceeds budget {round_budget:.3f} s"
        )

    append_run(
        args.output,
        {
            "kind": "memory_guard",
            "config": {
                "peers": peers,
                "helpers": helpers,
                "topk": k,
                "rounds": rounds,
                "seed": args.seed,
                "learner": "r2hs",
                "dtype": "float32",
                "rss_budget_mb": budget_mb,
                "round_budget_s": round_budget,
            },
            "results": {
                "trace_identity": identity,
                "dense": dense,
                "topk": {
                    "bank_mb": bank_mb,
                    "build_s": build_s,
                    "seconds_per_round": per_round,
                    "promotions": promotions,
                    "final_welfare": welfare,
                    "peak_rss_mb": peak_mb,
                },
            },
            "passed": not failures,
        },
    )
    print(f"  wrote {args.output}")
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "bench_memory_guard.txt").write_text(
        f"N={peers} H={helpers} k={k}: bank {bank_mb:.0f} MiB, "
        f"{per_round:.3f} s/round, peak RSS {peak_mb:.0f} MiB "
        f"(budget {budget_mb:.0f} MiB); dense {dense['status']} "
        f"({dense_mb / 1024:.0f} GiB predicted)\n"
    )
    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: sparse top-k bank holds the giant-run budget")
    return 0


def run_capacity_guard(seed: int) -> int:
    """CI gate: vectorized capacity advancement must beat scalar at H=1000."""
    result = bench_capacity_advance(1000, seed)
    print(
        f"capacity guard (H=1000): scalar {result['scalar'] * 1e3:.3f} "
        f"ms/stage, vectorized {result['vectorized'] * 1e3:.3f} ms/stage "
        f"({result['speedup']:.1f}x)"
    )
    if result["speedup"] <= 1.0:
        print("FAIL: vectorized capacity backend is not faster than scalar")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=10_000)
    parser.add_argument("--helpers", type=int, default=100)
    parser.add_argument("--channels", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke configuration (2k peers, 20 helpers, same pipeline)",
    )
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="time only the vectorized backend (no speedup reported)",
    )
    parser.add_argument(
        "--helpers-scale",
        action="store_true",
        help="environment-scaling study over --helpers-grid instead of the "
        "scalar-vs-vectorized round loop",
    )
    parser.add_argument(
        "--helpers-grid",
        type=str,
        default="100,1000,5000",
        help="comma-separated helper counts for --helpers-scale",
    )
    parser.add_argument(
        "--channels-scale",
        action="store_true",
        help="channel-scaling study over --channels-grid: fused grouped "
        "bank vs per-channel banks (two helpers per channel, so only the "
        "dispatch count varies)",
    )
    parser.add_argument(
        "--channels-grid",
        type=str,
        default="1,20,100",
        help="comma-separated channel counts for --channels-scale",
    )
    parser.add_argument(
        "--capacity-guard",
        action="store_true",
        help="CI gate: exit non-zero unless the vectorized capacity backend "
        "beats scalar at H=1000 (no report written)",
    )
    parser.add_argument(
        "--channels-guard",
        action="store_true",
        help="CI gate: exit non-zero unless the fused grouped bank beats "
        "per-channel dispatch at --guard-channels channels (no report "
        "written)",
    )
    parser.add_argument("--guard-channels", type=int, default=50)
    parser.add_argument(
        "--guard-channel-peers", type=int, default=10_000,
        help="population for --channels-guard and --network-guard",
    )
    parser.add_argument(
        "--network-guard",
        action="store_true",
        help="CI gate: exit non-zero if wrapping the capacity process in a "
        "jittered link-effect layer adds more than --network-budget to the "
        "C=--guard-channels / N=--guard-channel-peers round (appends a "
        "network_guard point to the trajectory)",
    )
    parser.add_argument(
        "--network-budget", type=float, default=0.10,
        help="fractional per-round overhead ceiling for --network-guard",
    )
    parser.add_argument(
        "--memory-guard",
        action="store_true",
        help="CI gate for giant runs: sparse topk bank at "
        "--guard-peers x --guard-helpers must hold the RSS and per-round "
        "budgets (dense is skipped as infeasible), and topk with k=H must "
        "be trace-identical to dense at small H",
    )
    parser.add_argument("--guard-peers", type=int, default=20_000)
    parser.add_argument("--guard-helpers", type=int, default=2_000)
    parser.add_argument("--guard-topk", type=int, default=32)
    parser.add_argument("--guard-rounds", type=int, default=3)
    parser.add_argument(
        "--rss-budget-mb", type=float, default=2048.0,
        help="peak-RSS ceiling for --memory-guard",
    )
    parser.add_argument(
        "--round-budget-s", type=float, default=2.0,
        help="per-round wall-clock ceiling for --memory-guard",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_runtime.json",
    )
    args = parser.parse_args(argv)
    if args.capacity_guard:
        return run_capacity_guard(args.seed)
    if args.channels_guard:
        return run_channels_guard(args)
    if args.network_guard:
        return run_network_guard(args)
    if args.memory_guard:
        return run_memory_guard(args)
    if args.quick:
        args.peers, args.helpers, args.rounds = 2_000, 20, 3
        if args.helpers_grid == "100,1000,5000":
            args.helpers_grid = "100,1000"
        if args.channels_grid == "1,20,100":
            args.channels_grid = "1,20"

    if args.channels_scale:
        grid = [int(c) for c in args.channels_grid.split(",") if c]
        print(
            f"bench_runtime_scale --channels-scale: N={args.peers} "
            f"C in {grid} rounds={args.rounds}"
        )
        rows = bench_channels_scale(grid, args.peers, args.rounds, args.seed)
        report = append_run(
            args.output,
            {
                "kind": "channels_scale",
                "config": {
                    "peers": args.peers,
                    "rounds": args.rounds,
                    "seed": args.seed,
                    "learner": "r2hs",
                    "quick": bool(args.quick),
                },
                "results": rows,
            },
        )
        print(f"  wrote {args.output} ({len(report['runs'])} runs)")
        OUTPUT_DIR.mkdir(exist_ok=True)
        lines = [
            f"C={r['channels']:4d}: per_channel "
            f"{r['round_s']['per_channel'] * 1e3:.3f} ms -> grouped "
            f"{r['round_s']['grouped'] * 1e3:.3f} ms/round "
            f"({r['speedup']:.2f}x)"
            for r in rows
        ]
        (OUTPUT_DIR / "bench_channels_scale.txt").write_text(
            "\n".join(lines) + "\n"
        )
        return 0

    if args.helpers_scale:
        grid = [int(h) for h in args.helpers_grid.split(",") if h]
        print(
            f"bench_runtime_scale --helpers-scale: N={args.peers} "
            f"H in {grid} rounds={args.rounds}"
        )
        rows = bench_helpers_scale(grid, args.peers, args.rounds, args.seed)
        report = append_run(
            args.output,
            {
                "kind": "helpers_scale",
                "config": {
                    "peers": args.peers,
                    "rounds": args.rounds,
                    "seed": args.seed,
                    "learner": "r2hs",
                    "quick": bool(args.quick),
                },
                "results": rows,
            },
        )
        print(f"  wrote {args.output} ({len(report['runs'])} runs)")
        OUTPUT_DIR.mkdir(exist_ok=True)
        lines = [
            f"H={r['helpers']:5d} C={r['channels']:3d}: "
            f"env {r['env_speedup']:.1f}x, round {r['round_speedup']:.1f}x, "
            f"env share {r['capacity_share_of_scalar_round']:.0%}"
            for r in rows
        ]
        (OUTPUT_DIR / "bench_helpers_scale.txt").write_text(
            "\n".join(lines) + "\n"
        )
        return 0

    spec = _spec(args.peers, args.helpers, args.channels)
    env = paper_bandwidth_process(args.helpers, rng=args.seed + 1)
    shared = record_capacity_trace(env, args.warmup + args.rounds)

    print(
        f"bench_runtime_scale: N={args.peers} H={args.helpers} "
        f"C={args.channels} rounds={args.rounds} (+{args.warmup} warmup, "
        f"best of 3 alternating blocks)"
    )
    backends = ["vectorized"] if args.skip_scalar else ["vectorized", "scalar"]
    results = time_backends(
        backends, spec, shared, args.rounds, args.warmup, args.seed
    )
    for name in backends:
        print(
            f"  {name:10s} : {results[name]['seconds_per_round']:.4f} s/round "
            f"({results[name]['rounds_per_s']:.1f} rounds/s)"
        )

    run = {
        "kind": "round_loop",
        "config": {
            "peers": args.peers,
            "helpers": args.helpers,
            "channels": args.channels,
            "rounds": args.rounds,
            "warmup": args.warmup,
            "seed": args.seed,
            "learner": "r2hs",
            "quick": bool(args.quick),
        },
        "results": results,
    }
    if "scalar" in results:
        speedup = (
            results["scalar"]["seconds_per_round"]
            / results["vectorized"]["seconds_per_round"]
        )
        run["speedup"] = speedup
        print(f"  speedup    : {speedup:.1f}x per round")

    report = append_run(args.output, run)
    print(f"  wrote {args.output} ({len(report['runs'])} runs)")

    OUTPUT_DIR.mkdir(exist_ok=True)
    lines = [
        f"{name:11s}: {r['seconds_per_round']:.4f} s/round "
        f"({r['rounds_per_s']:.1f} rounds/s, build {r['build_s']:.2f} s)"
        for name, r in results.items()
    ]
    if "speedup" in run:
        lines.append(f"speedup    : {run['speedup']:.1f}x per round")
    (OUTPUT_DIR / "bench_runtime_scale.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
