#!/usr/bin/env python
"""Golden-spec smoke check: one spec, both backends, pinned expectations.

CI runs ``examples/smoke.json`` end-to-end on the scalar *and* the
vectorized backend and diffs the headline metrics against
``examples/smoke_expected.json``:

* per backend, metrics must match the checked-in expectations to float
  reproducibility tolerance (same seed, same code path -> same numbers);
* across backends, the headline welfare/server-load metrics must agree
  within the established distributional tolerance (the two backends
  realize the same dynamics on different RNG stream layouts);
* the sparse top-k bank must reproduce the dense vectorized run exactly
  at k >= per-channel H (trace-identical by construction) and stay
  within a distributional band of it at k below that (true sparsity).

Run with ``--update`` after an intentional behaviour change to
regenerate the expectations file (and say why in the commit message).

Usage::

    PYTHONPATH=src python benchmarks/check_golden_spec.py
    PYTHONPATH=src python benchmarks/check_golden_spec.py --update
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.spec import ExperimentSpec  # noqa: E402

SPEC_PATH = REPO / "examples" / "smoke.json"
EXPECTED_PATH = REPO / "examples" / "smoke_expected.json"

#: Same backend, same seed: reproducibility band (float noise only; a
#: little slack for BLAS/platform summation-order differences).
SAME_BACKEND_RTOL = 1e-6
#: Cross-backend distributional band for the mean-welfare headline
#: (matches tests/runtime/test_equivalence.py's steady-state tolerance,
#: padded for the short smoke horizon).
CROSS_BACKEND_RTOL = 0.05

#: Dense-vs-sparse band when k is genuinely below the channel helper
#: count: same recursion on the tracked block, the tail approximated —
#: wider than the cross-backend band (different action sequences) but
#: the same steady state.
TOPK_SPARSE_RTOL = 0.10

BACKENDS = ("scalar", "vectorized")

#: Tracked arms for the sparse phase: below the smoke spec's 4 helpers
#: per channel, so promotion/eviction actually exercises.
SPARSE_TOPK = 2


def run_backend(spec: ExperimentSpec, backend: str) -> dict:
    result = spec.with_overrides({"backend": backend}).run()
    return {name: float(value) for name, value in result.metrics.items()}


def run_topk(spec: ExperimentSpec, topk: int) -> dict:
    result = spec.with_overrides(
        {"backend": "vectorized", "learner.bank": "topk", "learner.topk": topk}
    ).run()
    return {name: float(value) for name, value in result.metrics.items()}


def check_topk(spec: ExperimentSpec, observed: dict) -> list:
    """Sparse-bank phase: k >= H must equal dense, k < H must track it."""
    failures = []
    # Round-robin partitioning hands the largest channel ceil(H/C)
    # helpers; k must cover that one for the identity phase to hold.
    helpers_per_channel = -(
        -spec.topology.num_helpers // spec.topology.num_channels
    )
    dense = observed["vectorized"]

    full = run_topk(spec, helpers_per_channel)
    observed["topk-full"] = full
    for name, value in dense.items():
        got = full.get(name)
        if got is None or not math.isclose(
            got, value, rel_tol=SAME_BACKEND_RTOL, abs_tol=1e-9
        ):
            failures.append(
                f"topk-full.{name}: got {got!r}, dense vectorized gave "
                f"{value!r} (k >= H must be trace-identical)"
            )

    sparse = run_topk(spec, SPARSE_TOPK)
    observed["topk-sparse"] = sparse
    for name in ("mean_welfare", "tail_welfare", "mean_server_load"):
        if name not in dense:
            continue
        want, got = dense[name], sparse.get(name, float("nan"))
        if abs(got - want) / max(abs(want), 1.0) > TOPK_SPARSE_RTOL:
            failures.append(
                f"topk-sparse.{name}: got {got:.2f}, dense vectorized gave "
                f"{want:.2f} (> {TOPK_SPARSE_RTOL:.0%} drift at "
                f"k={SPARSE_TOPK})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate examples/smoke_expected.json from this run",
    )
    args = parser.parse_args(argv)

    spec = ExperimentSpec.load(SPEC_PATH)
    observed = {backend: run_backend(spec, backend) for backend in BACKENDS}

    if args.update:
        EXPECTED_PATH.write_text(json.dumps(observed, indent=2) + "\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0

    expected = json.loads(EXPECTED_PATH.read_text())
    failures = []
    for backend in BACKENDS:
        want = expected.get(backend)
        if want is None:
            failures.append(f"{backend}: no expectations recorded")
            continue
        for name, value in want.items():
            got = observed[backend].get(name)
            if got is None:
                failures.append(f"{backend}.{name}: metric missing from run")
            elif not math.isclose(got, value, rel_tol=SAME_BACKEND_RTOL, abs_tol=1e-9):
                failures.append(
                    f"{backend}.{name}: got {got!r}, expected {value!r} "
                    f"(rtol {SAME_BACKEND_RTOL})"
                )

    ws = observed["scalar"]["mean_welfare"]
    wv = observed["vectorized"]["mean_welfare"]
    if abs(ws - wv) / ws > CROSS_BACKEND_RTOL:
        failures.append(
            f"cross-backend mean_welfare drift: scalar {ws:.2f} vs "
            f"vectorized {wv:.2f} (> {CROSS_BACKEND_RTOL:.0%})"
        )

    failures.extend(check_topk(spec, observed))

    width = max(len(label) for label in observed)
    for label, metrics in observed.items():
        print(f"{label:{width}s}: " + "  ".join(
            f"{k}={v:.3f}" for k, v in metrics.items()
        ))
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: golden spec reproduces on both backends and the topk bank")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
