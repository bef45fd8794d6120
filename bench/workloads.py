"""The benchmark's workloads and the inputs generated for them.

Every workload is a closed-loop batch job with one client: a learning
round, or an eval cell, starts only when the previous one has finished.
The workload seed is a benchmark argument; it lands in the generated
spec's ``seed`` field and the program only ever sees that spec.

The three simulator workloads share one shape of job -- build the system,
run ``warmup`` rounds, time ``rounds`` more -- and differ in the layers
they load.  ``quick`` shapes keep every code path and shrink the sizes,
for the smoke test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class SimShape:
    """One simulator job: spec sections plus warm-up and timed rounds."""

    topology: Dict[str, Any]
    learner: Dict[str, Any]
    warmup: int
    rounds: int
    churn: Dict[str, Any] = field(default_factory=dict)

    def regret_bytes(self) -> Optional[int]:
        """Bytes of the dense regret tensors (``None`` for top-k storage).

        Helpers split round-robin over channels, and a peer of a channel
        with ``w`` helpers keeps a ``w x w`` regret matrix.
        """
        if self.learner.get("bank", "dense") != "dense":
            return None
        helpers = self.topology["num_helpers"]
        channels = self.topology.get("num_channels", 1)
        itemsize = 4 if self.learner.get("dtype") == "float32" else 8
        width = helpers // channels
        return self.topology["num_peers"] * width * width * itemsize


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, and its full and quick shapes.

    ``kind`` is ``"sim"`` (``full``/``quick`` are :class:`SimShape`) or
    ``"eval"`` (the pinned eval matrix; ``quick`` shrinks every scenario).
    ``bound_by`` names the :mod:`bench.speed` kernel that slows down the
    way the workload's rounds do.
    """

    name: str
    why: str
    kind: str
    full: Optional[SimShape] = None
    quick: Optional[SimShape] = None
    bound_by: str = "interpreter"

    def shape(self, quick: bool) -> Optional[SimShape]:
        return self.quick if quick else self.full


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fused_c50",
            kind="sim",
            why="C=50, 2 helpers per channel, 10k peers: per-row work is tiny, so "
            "per-call dispatch in runtime.system and the grouped bank dominates; "
            "no churn and no memory-bound kernel",
            full=SimShape(
                topology={"num_peers": 10_000, "num_helpers": 100,
                          "num_channels": 50, "channel_bitrates": 100.0},
                learner={"name": "r2hs", "engine": "grouped"},
                warmup=20,
                rounds=1000,
            ),
            quick=SimShape(
                topology={"num_peers": 500, "num_helpers": 20,
                          "num_channels": 10, "channel_bitrates": 100.0},
                learner={"name": "r2hs", "engine": "grouped"},
                warmup=2,
                rounds=10,
            ),
        ),
        Workload(
            name="dense_wide",
            kind="sim",
            why="1 channel, 6000 peers x 100 helpers: the 480 MB float64 regret tensor "
            "is over 4x the L3, so population act/observe are memory bound and "
            "dispatch count does not matter",
            full=SimShape(
                topology={"num_peers": 6000, "num_helpers": 100,
                          "num_channels": 1, "channel_bitrates": 100.0},
                learner={"name": "r2hs"},
                warmup=10,
                rounds=80,
            ),
            quick=SimShape(
                topology={"num_peers": 200, "num_helpers": 10,
                          "num_channels": 1, "channel_bitrates": 100.0},
                learner={"name": "r2hs"},
                warmup=2,
                rounds=10,
            ),
            bound_by="memory",
        ),
        Workload(
            name="topk_churn",
            kind="sim",
            why="18k peers x 2000 helpers, top-k float32 bank, ~200 join/leave/switch "
            "events per round through sim.engine, sim.churn and the peer store; "
            "the only workload whose population changes",
            # At 20k peers the seed decides whether the population's growth
            # crosses an allocator threshold, and peak RSS splits into two
            # levels 6% apart; at 18k it varies smoothly with the seed.
            full=SimShape(
                topology={"num_peers": 18_000, "num_helpers": 2000,
                          "num_channels": 20, "channel_bitrates": 100.0,
                          "channel_switch_rate": 20.0},
                learner={"name": "r2hs", "bank": "topk", "topk": 32, "dtype": "float32"},
                churn={"arrival_rate": 90.0, "mean_lifetime": 200.0,
                       "initial_peer_lifetimes": True},
                warmup=10,
                rounds=30,
            ),
            quick=SimShape(
                topology={"num_peers": 1000, "num_helpers": 100,
                          "num_channels": 5, "channel_bitrates": 100.0,
                          "channel_switch_rate": 2.0},
                learner={"name": "r2hs", "bank": "topk", "topk": 8, "dtype": "float32"},
                churn={"arrival_rate": 5.0, "mean_lifetime": 200.0,
                       "initial_peer_lifetimes": True},
                warmup=2,
                rounds=10,
            ),
        ),
        Workload(
            name="eval_matrix",
            why="the pinned examples/eval_matrix.json (5 scenarios x {rths, sticky}, "
            "vectorized) via repro eval with a fresh store, then resumed: many small "
            "specs, CLI import, store writes and reads",
            kind="eval",
        ),
    )
}

#: Files of the source tree the eval workload reads.
EVAL_MATRIX = Path("examples") / "eval_matrix.json"
EVAL_EXPECTED = Path("examples") / "eval_expected.json"

#: The eval backend.  The scalar half of the pinned matrix takes ~40 s
#: cold, longer than one benchmark run may measure.
EVAL_BACKEND = "vectorized"


def sim_spec(workload: Workload, seed: int, quick: bool) -> Dict[str, Any]:
    """The ExperimentSpec dict one simulator repetition runs."""
    shape = workload.shape(quick)
    return {
        "name": workload.name,
        "backend": "vectorized",
        "seed": seed,
        "rounds": shape.warmup + shape.rounds,
        "topology": dict(shape.topology),
        "learner": dict(shape.learner),
        "churn": dict(shape.churn),
    }


def eval_spec(tree: Path, seed: int, quick: bool) -> Dict[str, Any]:
    """The EvalSpec dict: the pinned matrix on one backend at ``seed``."""
    spec = json.loads((tree / EVAL_MATRIX).read_text())
    spec["backend"] = EVAL_BACKEND
    spec["seed"] = seed
    if quick:
        for options in spec["scenario_options"].values():
            options.update(num_peers=20, num_stages=30)
    return spec
