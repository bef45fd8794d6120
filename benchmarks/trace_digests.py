#!/usr/bin/env python
"""Trace digests of a fixed list of small specs, to show byte identity.

Runs each spec below once and prints one sha256 per spec, taken over
every ``SystemTrace`` column (times, welfare, server load, min deficit,
online peers, total demand, helper loads, capacities) and, where the
spec records them, the per-peer action and utility rows.  With
``--against TREE`` it runs the same list under a second source tree
(a checkout or ``git archive`` of another revision) and exits 1 if any
digest differs, so a change that must not move a float can show that
it does not.

The specs are variations of ``examples/smoke.json``: the dense fused
bank, top-k at k >= and k < the channel width, float32 with per-peer
rows, the scalar backend, churn with viewer switching and popularity
drift on both backends, a 2-arm channel shape (with one 3-arm channel,
so two width groups), an 8-arm one, and the ``failures`` (one failure
domain per helper) and ``correlated_failures`` capacity transforms.

Not a CI check: the digests hash raw float bytes, which can move with
the numpy version.  Compare two trees under one interpreter.

Usage::

    python benchmarks/trace_digests.py
    python benchmarks/trace_digests.py --against ../parent-tree
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC_PATH = REPO / "examples" / "smoke.json"

CHURN = {
    "churn.arrival_rate": 4.0,
    "churn.mean_lifetime": 30.0,
    "churn.initial_peer_lifetimes": True,
    "topology.channel_switch_rate": 1.0,
    "topology.popularity_drift_rate": 0.5,
    "topology.popularity_drift_period": 15.0,
}

#: ``(name, overrides of the smoke spec)``, in the order they print.
SPECS = (
    ("dense", {}),
    ("topk-k4", {"learner.bank": "topk", "learner.topk": 4}),
    ("topk-k2", {"learner.bank": "topk", "learner.topk": 2}),
    ("float32-peers", {"learner.dtype": "float32", "metrics.record_peers": True}),
    ("scalar", {"backend": "scalar"}),
    ("churn-vectorized", CHURN),
    ("churn-scalar", dict(CHURN, backend="scalar")),
    ("arms-2", {"topology.num_helpers": 21, "topology.num_channels": 10,
                "topology.num_peers": 300}),
    ("arms-8", {"topology.num_helpers": 16}),
    ("failures", {"capacity.transforms": [
        {"name": "failures",
         "options": {"failure_rate": 0.05, "mean_outage_rounds": 5.0}}]}),
    ("correlated-failures", {"capacity.transforms": [
        {"name": "correlated_failures",
         "options": {"num_groups": 4, "group_failure_rate": 0.05,
                     "mean_outage_rounds": 5.0}}]}),
)

TRACE_COLUMNS = ("times", "welfare", "server_load", "min_deficit",
                 "online_peers", "total_demand", "loads", "capacities")


def digest_of(trace) -> str:
    """sha256 over every trace column, then any per-peer rows."""
    digest = hashlib.sha256()
    for name in TRACE_COLUMNS:
        digest.update(getattr(trace, name).tobytes())
    for rows in (trace.actions, trace.utilities):
        for row in rows or ():
            digest.update(row.tobytes())
    return digest.hexdigest()


def emit(src: Path) -> int:
    """Print ``{spec name: digest}`` as JSON, importing repro from ``src``."""
    sys.path.insert(0, str(src))
    import repro
    from repro.spec import ExperimentSpec

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    base = ExperimentSpec.load(SPEC_PATH)
    out = {name: digest_of(base.with_overrides(overrides).run().trace)
           for name, overrides in SPECS}
    print(json.dumps(out))
    return 0


def digests_under(tree: Path) -> dict:
    """The digests with ``repro`` imported from ``tree/src``, in a fresh process."""
    src = (tree / "src").resolve()
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: {tree} has no src/repro")
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(src)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: digests under {tree} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="another source tree to run the same specs under")
    parser.add_argument("--emit", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        return emit(args.emit)
    mine = digests_under(REPO)
    theirs = digests_under(args.against) if args.against is not None else None
    differ = 0
    for name, _ in SPECS:
        line = f"{name:20s} {mine[name]}"
        if theirs is not None:
            same = theirs[name] == mine[name]
            differ += not same
            line += "  same" if same else f"  DIFFERS (other tree: {theirs[name]})"
        print(line)
    if theirs is not None:
        print(f"{len(SPECS) - differ} of {len(SPECS)} digests equal to {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
