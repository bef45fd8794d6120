"""Span tracing of the program's layers, wrapped from outside the program.

A :class:`Tracer` keeps spans in memory -- name, start, end, the id of the
enclosing span, and the request being served (the learning round or eval
cell) -- and the benchmark writes them out when the process exits.  Nothing under
``src/`` is edited: :func:`instrument_program` puts class- and
module-level wrappers on the entry points every run passes through, and
its ``ExperimentSpec.build`` wrapper puts instance-level wrappers on the
objects each built system owns (bank, populations, capacity process,
trace, peer store, simulator).  :meth:`Tracer.close` removes them all.

A span's self time is its duration minus the time its child spans cover.
:func:`layer_metrics` turns the per-span totals of the processes of one
repetition into the per-layer metrics of :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Tuple

_MISSING = object()

#: Name of the span every other span of a benchmark process nests in.
ROOT_SPAN = "process"

#: Per-layer metrics, in report order: name -> (unit, True when higher is better).
PER_LAYER: Dict[str, Tuple[str, bool]] = {
    "import.s": ("s", False),
    "cli.self.s": ("s", False),
    "spec.s": ("s", False),
    "spec.build.s": ("s", False),
    "spec.build.calls": ("count", False),
    "capacity.s": ("s", False),
    "capacity.calls": ("count", False),
    "system.self.s": ("s", False),
    "bank.act.self_s": ("s", False),
    "bank.observe.self_s": ("s", False),
    "bank.rows": ("count", False),
    "population.act.s": ("s", False),
    "population.observe.s": ("s", False),
    "population.ns_per_row": ("ns", False),
    "population.bytes": ("B", False),
    "population.observe.gbps_computed": ("GB/s", True),
    "topk.promotions": ("count", False),
    "peer_store.s": ("s", False),
    "peer_store.calls": ("count", False),
    "sim.events": ("count", False),
    "trace.append.s": ("s", False),
    "metrics.s": ("s", False),
    "runner.self.s": ("s", False),
    "results_store.open.s": ("s", False),
    "results_store.put.s": ("s", False),
    "results_store.put.bytes": ("B", False),
    "results_store.get.s": ("s", False),
    "results_store.hit_ratio": ("fraction", True),
    "trace.coverage": ("fraction", True),
    "trace.overhead": ("fraction", False),
}

#: PeerStore methods the round loop and churn call.
_PEER_STORE_METHODS = (
    "allocate", "allocate_many", "release", "online_slots", "channel_grouping",
)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        #: ``(id, parent id, name, start, end, request)`` per finished span.
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._requests: List[str] = []
        self._ids = itertools.count()
        self._undo: List[tuple] = []
        #: ``(system, populations)`` of every instrumented system.
        self.systems: List[tuple] = []
        #: Root directory of every results store an entry was committed to.
        self.stores: set = set()

    def _open(self, start: float, request: str = None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        if request is not None:
            outer = self._requests[-1] + "/" if self._requests else ""
            self._requests.append(outer + request)
        label = self._requests[-1] if self._requests else None
        return sid, parent, label, start

    def _close(self, name: str, opened, request: bool = False) -> None:
        end = time.perf_counter()
        sid, parent, label, start = opened
        self._stack.pop()
        if request:
            self._requests.pop()
        self.spans.append((sid, parent, name, start, end, label))

    def root(self, start: float):
        """The span every other span of the process nests in."""
        return self.span(ROOT_SPAN, start=start)

    @contextmanager
    def span(self, name: str, start: float = None):
        """Record the enclosed block as one span (``start`` backdates it)."""
        opened = self._open(time.perf_counter() if start is None else start)
        try:
            yield
        finally:
            self._close(name, opened)

    def wrap(self, owner, attr: str, name: str, replacement=None,
             count=None, request: str = None) -> None:
        """Record every call of ``owner.attr`` as a span named ``name``.

        ``replacement(original, *args, **kwargs)`` runs instead of the
        original when given; ``count(args, result)`` runs after each call to
        update :attr:`counts`; ``request`` names the request kind each call
        serves, numbered in call order (``round0``, ``round1``, ...).
        """
        original = getattr(owner, attr)
        target = original if replacement is None else functools.partial(
            replacement, original
        )
        numbers = itertools.count()
        tracer = self

        def traced(*args, **kwargs):
            label = None if request is None else f"{request}{next(numbers)}"
            opened = tracer._open(time.perf_counter(), label)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(name, opened, request=label is not None)
            if count is not None:
                count(args, result)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def totals(self) -> Dict[str, float]:
        """Self seconds and calls per span name, plus the counters."""
        covered: Counter = Counter()
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end, _ in self.spans:
            out[f"{name}.self_s"] += end - start - covered[sid]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        for system, populations in self.systems:
            out["sim.events"] += system.simulator.events_processed
            out["topk.promotions"] += sum(
                getattr(pop, "promotions", 0) for pop in populations
            )
            out["population.bytes"] = max(
                out["population.bytes"],
                sum(_state_bytes(pop) for pop in populations),
            )
        # Whatever the store's layout: every byte under its root, at exit.
        out["results_store.put.bytes"] = sum(
            path.stat().st_size
            for root in self.stores for path in root.rglob("*") if path.is_file()
        )
        return dict(out)

    def span_records(self, origin: float) -> List[list]:
        """Spans as ``[id, parent, name, start, end, request]`` lists, in
        seconds since ``origin``."""
        return [
            [sid, parent, name, start - origin, end - origin, request]
            for sid, parent, name, start, end, request in self.spans
        ]


def _state_bytes(population) -> int:
    """Bytes of a population's array state (its numpy attributes)."""
    return sum(
        value.nbytes for value in vars(population).values()
        if hasattr(value, "nbytes") and hasattr(value, "dtype")
    )


def instrument_system(tracer: Tracer, system, capacity) -> None:
    """Wrap the layers one built vectorized system owns."""
    counts = tracer.counts
    tracer.wrap(system, "run", "system.run")
    tracer.wrap(system.simulator, "run_until", "round", request="round")
    bank = system.bank

    def bank_rows(args, _):
        counts["bank.rows"] += len(args[1])

    tracer.wrap(bank, "act_all", "bank.act_all", count=bank_rows)
    tracer.wrap(bank, "observe_all", "bank.observe_all")
    populations = {}
    for view in system.banks:
        pop = getattr(view, "population", None)
        if pop is not None:
            populations[id(pop)] = pop

    def act_rows(args, _):
        counts["population.rows"] += len(args[0])

    for pop in populations.values():
        row_bytes = _state_bytes(pop) / max(1, pop.num_peers)

        def observe_bytes(args, _, row_bytes=row_bytes):
            counts["population.observe_bytes"] += len(args[0]) * row_bytes

        tracer.wrap(pop, "act_slots", "population.act_slots", count=act_rows)
        tracer.wrap(pop, "observe_slots", "population.observe_slots",
                    count=observe_bytes)
    tracer.wrap(capacity, "capacities", "capacity.capacities")
    tracer.wrap(capacity, "advance", "capacity.advance")
    tracer.wrap(system.trace, "append_round", "trace.append_round")
    store = system.store
    for method in _PEER_STORE_METHODS:
        tracer.wrap(store, method, f"peer_store.{method}")
    tracer.systems.append((system, list(populations.values())))


def instrument_program(tracer: Tracer) -> None:
    """Wrap the program's entry points; built systems get wrapped too."""
    import repro.cli
    import repro.eval.harness as harness
    from repro.analysis.parallel import ParallelRunner
    from repro.eval import EvalSpec
    from repro.spec import ExperimentSpec
    from repro.store import ResultsStore
    from repro.util.rng import as_generator, spawn

    def build(original, spec, rng=None, capacity_process=None):
        # ExperimentSpec.build spawns the capacity stream first from the
        # parent generator; doing the same here keeps a handle on the
        # process and leaves every draw where the untraced run makes it.
        if (capacity_process is not None or spec.backend != "vectorized"
                or spec.learner.shards > 1):
            return original(spec, rng=rng, capacity_process=capacity_process)
        parent = as_generator(spec.seed if rng is None else rng)
        with tracer.span("capacity.build"):
            capacity_process = spec.build_capacity_process(rng=spawn(parent))
        system = original(spec, rng=parent, capacity_process=capacity_process)
        instrument_system(tracer, system, capacity_process)
        return system

    counts = tracer.counts

    def committed_to(args, committed):
        if committed:
            tracer.stores.add(args[0].root)

    def get_hits(_, result):
        counts["results_store.gets"] += 1
        counts["results_store.hits"] += result is not None

    tracer.wrap(repro.cli, "main", "cli.main")
    tracer.wrap(ExperimentSpec, "load", "spec.load")
    tracer.wrap(EvalSpec, "load", "spec.load")
    tracer.wrap(ExperimentSpec, "build", "spec.build", replacement=build)
    tracer.wrap(ExperimentSpec, "metrics_of", "spec.metrics_of")
    tracer.wrap(EvalSpec, "build_cell_spec", "eval.build_cell_spec")
    tracer.wrap(harness, "run_eval_cell", "eval.cell", request="cell")
    tracer.wrap(harness, "prequential_metrics", "eval.prequential_metrics")
    tracer.wrap(ParallelRunner, "map_cells", "runner.map_cells")
    tracer.wrap(ResultsStore, "__init__", "store.open")
    tracer.wrap(ResultsStore, "put", "store.put", count=committed_to)
    tracer.wrap(ResultsStore, "get", "store.get", count=get_hits)


def _merge(processes: Iterable[Mapping[str, float]]) -> Counter:
    total: Counter = Counter()
    for totals in processes:
        for key, value in totals.items():
            if key == "population.bytes":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return total


def layer_metrics(processes: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one repetition from its processes' totals.

    ``trace.overhead`` compares traced with untraced repetitions, so the
    caller adds it.
    """
    t = _merge(processes)

    def self_s(*names):
        return sum(t[f"{name}.self_s"] for name in names)

    def calls(*names):
        return sum(t[f"{name}.calls"] for name in names)

    peer_store = [f"peer_store.{method}" for method in _PEER_STORE_METHODS]
    capacity = ("capacity.build", "capacity.capacities", "capacity.advance")
    population_s = self_s("population.act_slots", "population.observe_slots")
    observe_s = self_s("population.observe_slots")
    covered = sum(
        value for key, value in t.items()
        if key.endswith(".self_s") and key != f"{ROOT_SPAN}.self_s"
    )
    wall = covered + t[f"{ROOT_SPAN}.self_s"]
    return {
        "import.s": self_s("import"),
        "cli.self.s": self_s("cli.main"),
        "spec.s": self_s("spec.load", "eval.build_cell_spec", "eval.cell"),
        "spec.build.s": self_s("spec.build"),
        "spec.build.calls": calls("spec.build"),
        "capacity.s": self_s(*capacity),
        "capacity.calls": calls(*capacity),
        "system.self.s": self_s("system.run", "round"),
        "bank.act.self_s": self_s("bank.act_all"),
        "bank.observe.self_s": self_s("bank.observe_all"),
        "bank.rows": t["bank.rows"],
        "population.act.s": self_s("population.act_slots"),
        "population.observe.s": observe_s,
        "population.ns_per_row": (
            population_s / t["population.rows"] * 1e9 if t["population.rows"] else 0.0
        ),
        "population.bytes": t["population.bytes"],
        "population.observe.gbps_computed": (
            t["population.observe_bytes"] / observe_s / 1e9 if observe_s else 0.0
        ),
        "topk.promotions": t["topk.promotions"],
        "peer_store.s": self_s(*peer_store),
        "peer_store.calls": calls(*peer_store),
        "sim.events": t["sim.events"],
        "trace.append.s": self_s("trace.append_round"),
        "metrics.s": self_s("spec.metrics_of", "eval.prequential_metrics"),
        "runner.self.s": self_s("runner.map_cells"),
        "results_store.open.s": self_s("store.open"),
        "results_store.put.s": self_s("store.put"),
        "results_store.put.bytes": t["results_store.put.bytes"],
        "results_store.get.s": self_s("store.get"),
        "results_store.hit_ratio": (
            t["results_store.hits"] / t["results_store.gets"]
            if t["results_store.gets"] else 0.0
        ),
        "trace.coverage": covered / wall if wall else 0.0,
    }
