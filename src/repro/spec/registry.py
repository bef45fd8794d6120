"""String-keyed component registries for the declarative spec layer.

An :class:`~repro.spec.model.ExperimentSpec` names its parts — the
capacity backend, the learner family, the metrics it reports, the canned
scenario it came from — and the registries here resolve those names to
factories.  Third-party code plugs in new components without touching the
core packages::

    from repro.spec import register_capacity_backend

    @register_capacity_backend("satellite-uplink")
    def build_uplink(num_helpers, *, levels, stay_probability, rng):
        return MyUplinkProcess(num_helpers, levels, rng=rng)

    spec = ExperimentSpec.from_json('{"capacity": {"backend": "satellite-uplink"}}')

Unknown names raise :class:`UnknownComponentError` carrying the sorted
list of registered names, so a typo in a spec JSON fails with the menu of
valid choices instead of a bare ``KeyError``.

Each global registry loads its built-in entries itself: the first read or
write imports the modules that register them (:mod:`repro.spec.builtins`
for the capacity backends, transforms, learners and metrics; the
:mod:`repro.workloads` preset modules for the scenarios).  A caller never
imports a provider for its side effect, and re-registering a built-in
name still needs ``overwrite=True``.

Registries are per-process.  Worker processes rebuild specs from their
dict form, so a sweep over a spec naming third-party components needs
those ``register_*`` calls to run in the workers too: under the ``fork``
start method (the Linux default) they are inherited automatically; under
``spawn``/``forkserver`` put the registrations at import time of a module
the cell function imports.

The registries and their entry contracts:

* **capacity backends** — ``factory(num_helpers, *, levels,
  stay_probability, rng) -> CapacityProcess`` (anything implementing
  ``capacities()`` / ``advance()`` / ``minimum_capacities()``).
* **capacity transforms** — a :class:`TransformEntry` whose
  ``factory(process, *, rng, **options) -> CapacityProcess`` wraps an
  already-built process with one composable effect (outages, waves,
  link loss).  An :class:`~repro.spec.model.ExperimentSpec` applies its
  ``capacity.transforms`` list in order, handing each stage its own
  child RNG stream.
* **learners** — a :class:`LearnerEntry` bundling a scalar
  learner-factory builder and a vectorized bank-factory builder, so one
  registered name drives both backends.
* **scenarios** — ``factory(**overrides) -> ExperimentSpec`` presets.
* **metrics** — ``fn(trace) -> float | numpy.ndarray`` computed from a
  :class:`~repro.sim.trace.SystemTrace`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class UnknownComponentError(KeyError):
    """A spec named a component that is not registered.

    Subclasses :class:`KeyError` (registries are mappings) but renders as
    a plain message listing every registered name, so spec authors see
    the valid choices instead of a quoted repr.
    """

    def __init__(self, kind: str, name: str, registered: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.registered = list(registered)
        menu = ", ".join(self.registered) if self.registered else "<none>"
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind}s: {menu}"
        )

    def __str__(self) -> str:  # KeyError would re-quote the message
        return self.args[0]


class Registry:
    """A name -> component mapping with decorator-style registration.

    ``providers`` are the modules that register the built-in entries.
    They are imported on the first read or write, before anything else
    touches the mapping.
    """

    def __init__(self, kind: str, providers: Sequence[str] = ()) -> None:
        self._kind = kind
        self._registered: Dict[str, object] = {}
        self._providers = tuple(providers)

    @property
    def _entries(self) -> Dict[str, object]:
        if self._providers:
            # Cleared first: each provider registers through this property.
            providers, self._providers = self._providers, ()
            for module in providers:
                importlib.import_module(module)
        return self._registered

    @property
    def kind(self) -> str:
        """Human name of the component family (used in error messages)."""
        return self._kind

    def register(
        self, name: str, obj: object = None, *, overwrite: bool = False
    ):
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering an existing name raises unless ``overwrite=True``
        (guards against two plugins silently fighting over a name).
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"component name must be a non-empty string, got {name!r}")

        def _add(component):
            if component is None:
                raise ValueError(f"cannot register None as {self._kind} {name!r}")
            if name in self._entries and not overwrite:
                raise ValueError(
                    f"{self._kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._entries[name] = component
            return component

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove ``name`` (missing names are ignored; test cleanup)."""
        self._entries.pop(name, None)

    def get(self, name: str):
        """Resolve ``name``; unknown names raise :class:`UnknownComponentError`."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownComponentError(self._kind, name, self.names()) from None

    def names(self) -> List[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class LearnerEntry:
    """One learner family, buildable on either backend.

    ``scalar(epsilon, delta, mu, u_max)`` returns a
    :data:`~repro.sim.system.LearnerFactory` (per-peer learner objects for
    :class:`~repro.sim.system.StreamingSystem`);
    ``bank(epsilon, delta, mu, u_max, dtype)`` returns a
    :data:`~repro.runtime.learner_bank.BankFactory` (``factory(arm_counts,
    rngs)`` building the one bank over all channels for
    :class:`~repro.runtime.VectorizedStreamingSystem`).  Entries without a
    vectorized implementation may leave ``bank`` as ``None`` (and vice
    versa); building a spec on the missing backend then raises a clear
    error.  ``min_actions`` is the smallest per-channel helper count the
    family can learn over (2 for the regret learners, whose action set
    must be non-degenerate); specs validate their topology against it at
    construction.  ``sparse`` declares that the bank builder additionally
    accepts ``bank=``/``topk=`` keyword arguments selecting a sparse
    top-k storage family (see
    :class:`~repro.runtime.learner_bank.TopKRegretBank`); specs with
    ``learner.bank = "topk"`` are only valid against such entries.
    """

    scalar: Optional[Callable] = None
    bank: Optional[Callable] = None
    min_actions: int = 1
    sparse: bool = False
    description: str = ""


@dataclass(frozen=True)
class TransformEntry:
    """One capacity transform: a wrapping factory plus its summary.

    ``factory(process, *, rng, **options)`` receives the process built
    so far (the raw backend, or the previous transform's output) and
    returns it wrapped with one effect.  ``rng`` is a child generator
    spawned for this pipeline stage; purely deterministic transforms
    simply ignore it (the stream is spawned either way, so adding or
    removing RNG consumption inside one transform never perturbs its
    siblings).  ``description`` is the one-line summary ``repro list``
    prints (falls back to the factory docstring).
    """

    factory: Callable
    description: str = ""


_BUILTINS = ("repro.spec.builtins",)

#: The global registries.
CAPACITY_BACKENDS: Registry = Registry("capacity backend", _BUILTINS)
CAPACITY_TRANSFORMS: Registry = Registry("capacity transform", _BUILTINS)
LEARNERS: Registry = Registry("learner", _BUILTINS)
SCENARIOS: Registry = Registry(
    "scenario",
    (
        "repro.workloads.scenarios",
        "repro.workloads.adversarial",
        "repro.workloads.geo",
    ),
)
METRICS: Registry = Registry("metric", _BUILTINS)


def register_capacity_backend(name: str, factory=None, *, overwrite: bool = False):
    """Register a capacity-process factory under ``name``.

    ``factory(num_helpers, *, levels, stay_probability, rng)`` must return
    an object implementing the
    :class:`~repro.game.repeated_game.CapacityProcess` protocol plus
    ``minimum_capacities()``.  Usable as a decorator.
    """
    return CAPACITY_BACKENDS.register(name, factory, overwrite=overwrite)


def register_capacity_transform(
    name: str, factory=None, *, description: str = "", overwrite: bool = False
):
    """Register a capacity transform under ``name``.

    ``factory(process, *, rng, **options)`` must return the given
    process wrapped with one effect (it may also return a replacement
    implementing the same
    :class:`~repro.game.repeated_game.CapacityProcess` protocol plus
    ``minimum_capacities()``).  Specs reach it through the ordered
    ``capacity.transforms`` list.  Both kinds of mistake fail at spec
    construction: an unknown transform *name* with the registered menu,
    and options that do not bind to the factory's signature with the
    binding error.  Usable as a decorator.
    """

    def _add(fn):
        CAPACITY_TRANSFORMS.register(
            name,
            TransformEntry(factory=fn, description=description),
            overwrite=overwrite,
        )
        return fn

    if factory is None:
        return _add
    return _add(factory)


def register_learner(
    name: str,
    *,
    scalar=None,
    bank=None,
    min_actions: int = 1,
    sparse: bool = False,
    description: str = "",
    overwrite: bool = False,
) -> LearnerEntry:
    """Register a learner family under ``name`` for one or both backends.

    Pass ``sparse=True`` when the ``bank`` builder also accepts
    ``bank=``/``topk=`` keyword arguments (sparse top-k storage).
    ``description`` is the one-line summary ``repro list`` prints.
    """
    if scalar is None and bank is None:
        raise ValueError("register_learner needs a scalar factory, a bank factory, or both")
    entry = LearnerEntry(
        scalar=scalar, bank=bank, min_actions=min_actions, sparse=sparse,
        description=description,
    )
    LEARNERS.register(name, entry, overwrite=overwrite)
    return entry


def register_scenario(name: str, factory=None, *, overwrite: bool = False):
    """Register a scenario preset: ``factory(**overrides) -> ExperimentSpec``.

    Usable as a decorator.
    """
    return SCENARIOS.register(name, factory, overwrite=overwrite)


def register_metric(name: str, fn=None, *, overwrite: bool = False):
    """Register a trace metric: ``fn(trace) -> float | ndarray``.

    Usable as a decorator.
    """
    return METRICS.register(name, fn, overwrite=overwrite)
