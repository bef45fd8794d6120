"""The declarative experiment description: one serializable spec.

Every experiment in this repository is an instance of one shape — a
peer/helper/channel topology, a capacity process, a learner family, an
optional churn model, and a metric set.  :class:`ExperimentSpec` captures
that shape as a frozen, JSON/dict-round-trippable dataclass tree and is
the single description every layer consumes:

* ``spec.build()`` returns a configured
  :class:`~repro.sim.system.StreamingSystem` or
  :class:`~repro.runtime.VectorizedStreamingSystem` (``backend`` picks the
  representation; everything else is shared).
* ``spec.run(seed=...)`` builds, runs ``rounds`` learning rounds, and
  evaluates the spec's registered metrics.
* ``spec.sweep(workers=...)`` fans a :class:`SweepSpec` grid and/or
  replications across a
  :class:`~repro.analysis.parallel.ParallelRunner`.

Component *names* inside the spec (capacity backend, learner, metrics)
resolve through the registries in :mod:`repro.spec.registry`, so
third-party scenarios and backends plug in without touching core code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.bandwidth import PAPER_BANDWIDTH_LEVELS
from repro.sim.churn import ChurnConfig
from repro.spec.registry import (
    CAPACITY_BACKENDS,
    CAPACITY_TRANSFORMS,
    LEARNERS,
    METRICS,
)
from repro.telemetry import parse_sink_reference
from repro.telemetry import session as telemetry_session
from repro.util.rng import Seedish, as_generator, spawn
from repro.util.validation import (
    require_bool,
    require_non_negative_int,
    require_positive_int,
)

#: System backends a spec can target.
SYSTEM_BACKENDS = ("scalar", "vectorized")

#: Learner storage precisions a spec can request.
SPEC_DTYPES = ("float32", "float64")

#: Learner-bank storage families a spec can request.
SPEC_BANKS = ("dense", "topk")

#: Accepted ``learner.engine`` values; parse-only, neither has any effect.
SPEC_ENGINES = ("auto", "grouped")


def _check_unknown_keys(cls, data: Mapping[str, Any]) -> None:
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


def _build(section: str, make, value):
    """``make(value)``, re-raising a ``TypeError`` as a ``ValueError``.

    The message names ``section``, so a wrong-typed spec value fails the
    way every other malformed spec does.
    """
    try:
        return make(value)
    except TypeError as exc:
        raise ValueError(f"spec {section}: wrong-typed value ({exc})") from exc


def _is_int(value) -> bool:
    """Whether ``value`` is an ``int`` proper (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bad_number(value, allow_bool: bool = False):
    """The first NaN, ±Infinity or (unless allowed) boolean in ``value``.

    Lists, tuples, arrays and mapping values are searched entry by entry;
    ``None`` means there is none.  Non-numbers are not this check's
    business: the spec's own checks report them as wrong-typed.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            bad = _bad_number(item, allow_bool)
            if bad is not None:
                return bad
        return None
    if isinstance(value, (bool, np.bool_)):
        return None if allow_bool else value
    if isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return value
    return None


def _check_number(where: str, value, allow_bool: bool = False) -> None:
    """Raise naming ``where`` when ``value`` holds a :func:`_bad_number`."""
    bad = _bad_number(value, allow_bool)
    if bad is not None:
        many = isinstance(value, (list, tuple, np.ndarray, Mapping))
        what = "finite numbers" if many else "a finite number"
        raise ValueError(f"{where} must be {what}, got {bad!r}")


def _check_float_fields(spec, section: str) -> None:
    """Reject NaN, ±Infinity and booleans in a spec section's float fields.

    Python's ``json`` reads ``NaN`` and ``Infinity``, from spec files and
    ``--set`` values alike, and takes JSON ``true`` for the number 1;
    none of them is a rate, a level or a timeout.  A float field is one
    whose annotation names ``float``.  Each section calls this first in
    ``__post_init__``, before its range checks (which NaN slips past) and
    its float conversions (which turn ``True`` into 1.0).
    """
    for f in dataclasses.fields(spec):
        if "float" in f.type:
            _check_number(f"{section} {f.name}", getattr(spec, f.name))


def apply_overrides(
    data: Dict[str, Any], overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """Replace dotted-path fields of a spec's ``to_dict()`` form in place.

    Paths such as ``"learner.epsilon"`` or ``"backend"`` address the
    nested keys of ``data``, in the order given; an unknown path raises
    with the valid keys at the failing level.  Returns ``data``.
    """
    for path, value in overrides.items():
        node: Dict[str, Any] = data
        parts = str(path).split(".")
        for i, part in enumerate(parts[:-1]):
            child = node.get(part)
            if not isinstance(child, dict):
                raise ValueError(
                    f"unknown override path {path!r}: {'.'.join(parts[: i + 1])!r} "
                    f"is not a spec section; sections here: "
                    f"{sorted(k for k, v in node.items() if isinstance(v, dict))}"
                )
            node = child
        leaf = parts[-1]
        if leaf not in node:
            raise ValueError(
                f"unknown override path {path!r}; valid keys here: "
                f"{sorted(node)}"
            )
        node[leaf] = value
    return data


def _opt_tuple(value) -> Optional[Tuple]:
    if value is None:
        return None
    return tuple(value)


@dataclass(frozen=True)
class TopologySpec:
    """Who is in the system: peers, helpers, channels.

    ``channel_bitrates`` is the per-peer playback demand (kbit/s) — one
    float for all channels or one per channel.  ``channel_popularity``
    weights initial and churn-time channel assignment (``None`` =
    uniform); ``channel_switch_rate`` is the Poisson rate of viewer
    channel switches.  ``popularity_drift_rate`` > 0 re-mixes the
    popularity weights every ``popularity_drift_period`` time units
    (diurnal skew shift; see
    :func:`repro.workloads.popularity.popularity_drift`), steering churn
    joins and viewer switches toward the drifting profile.
    """

    num_peers: int = 1000
    num_helpers: int = 20
    num_channels: int = 1
    channel_bitrates: Union[float, Tuple[float, ...]] = 350.0
    channel_popularity: Optional[Tuple[float, ...]] = None
    channel_switch_rate: float = 0.0
    round_duration: float = 1.0
    popularity_drift_rate: float = 0.0
    popularity_drift_period: float = 10.0

    def __post_init__(self) -> None:
        _check_float_fields(self, "topology")
        if not isinstance(self.channel_bitrates, (int, float)):
            object.__setattr__(
                self, "channel_bitrates", tuple(float(r) for r in self.channel_bitrates)
            )
        object.__setattr__(
            self, "channel_popularity", _opt_tuple(self.channel_popularity)
        )
        # Mirror SystemConfig's construction-time checks so malformed
        # specs fail here (where the CLI reports cleanly) instead of deep
        # inside build().
        for name in ("num_peers", "num_helpers", "num_channels"):
            count = require_positive_int(getattr(self, name), f"topology {name}")
            object.__setattr__(self, name, count)
        if self.num_helpers < self.num_channels:
            raise ValueError(
                "topology needs at least one helper per channel "
                f"(num_helpers={self.num_helpers}, "
                f"num_channels={self.num_channels})"
            )
        rates = self.channel_bitrates
        rates = (rates,) if isinstance(rates, (int, float)) else rates
        if any(r <= 0 for r in rates):
            raise ValueError("topology channel_bitrates must be positive")
        if self.channel_switch_rate < 0:
            raise ValueError("topology channel_switch_rate must be >= 0")
        if self.round_duration <= 0:
            raise ValueError("topology round_duration must be positive")
        if not 0 <= self.popularity_drift_rate <= 1:
            raise ValueError(
                "topology popularity_drift_rate must lie in [0, 1]"
            )
        if self.popularity_drift_period <= 0:
            raise ValueError(
                "topology popularity_drift_period must be positive"
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class TransformSpec:
    """One stage of the capacity-transform pipeline.

    ``name`` resolves through the capacity-transform registry (unknown
    names raise with the registered menu at spec construction);
    ``options`` carries the stage's keyword arguments through to the
    registered factory and must stay JSON-plain for the spec to
    round-trip.  The options are bound against the factory's signature
    here, so an unknown option fails at spec construction too; numbers
    in them must be finite, and an option whose default is a float
    refuses a boolean.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        factory = CAPACITY_TRANSFORMS.get(self.name).factory  # raises with the menu
        if not isinstance(self.options, Mapping) or any(
            not isinstance(key, str) for key in self.options
        ):
            raise ValueError(
                f"transform {self.name!r} options must be a mapping with "
                "string keys"
            )
        object.__setattr__(self, "options", dict(self.options))
        signature = inspect.signature(factory)
        try:
            signature.bind(None, rng=None, **self.options)
        except TypeError as exc:
            raise ValueError(
                f"transform {self.name!r} options {sorted(self.options)} do "
                f"not fit its factory: {exc}"
            ) from None
        for name, value in self.options.items():
            param = signature.parameters.get(name)
            _check_number(
                f"transform {self.name!r} option {name}",
                value,
                allow_bool=param is None or not isinstance(param.default, float),
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TransformSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class CapacitySpec:
    """The helper-bandwidth environment and the origin server budget.

    ``backend`` names a registered capacity backend (``"scalar"``,
    ``"vectorized"``, or a plug-in); ``"auto"`` follows the system
    backend.  ``server_capacity`` is the origin server's per-round
    upload budget (``None`` = unbounded; JSON has no ``inf``).

    ``transforms`` is the ordered capacity-transform pipeline: each
    entry names a registered transform (``"failures"``,
    ``"correlated_failures"``, ``"oscillating"``, ``"link_effects"``,
    ``"clamp"``, or a plug-in) that wraps the process built so far, so
    effects compose — the first transform wraps the raw backend, later
    transforms observe everything upstream.  Each stage is handed its
    own child RNG stream in pipeline order (deterministic transforms
    ignore theirs), so reordering, adding or removing a stage perturbs
    only the stages at and after the edit.  The ``network`` spec section
    (see :class:`NetworkSpec`) applies *after* the last transform: link
    effects fold into the capacity every other effect produced.
    """

    backend: str = "auto"
    levels: Tuple[float, ...] = PAPER_BANDWIDTH_LEVELS
    stay_probability: float = 0.9
    server_capacity: Optional[float] = None
    transforms: Tuple[TransformSpec, ...] = ()

    def __post_init__(self) -> None:
        _check_float_fields(self, "capacity")
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if self.backend != "auto":
            CAPACITY_BACKENDS.get(self.backend)  # raises with the menu
        if not self.levels:
            raise ValueError("capacity levels must not be empty")
        if not 0 < self.stay_probability < 1:
            raise ValueError("stay_probability must lie strictly in (0, 1)")
        if self.server_capacity is not None and self.server_capacity <= 0:
            raise ValueError("server_capacity must be positive or None")
        transforms = tuple(
            t if isinstance(t, TransformSpec) else TransformSpec.from_dict(t)
            for t in self.transforms
        )
        object.__setattr__(self, "transforms", transforms)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CapacitySpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class NetworkSpec:
    """The path between viewers and helpers (all-default = no network).

    The paper's environment is placeless; this section adds the link
    layer, applied *after* the capacity-transform pipeline so path
    effects fold into the observed capacity every other effect produced
    (see :mod:`repro.network`).

    ``regions`` names the geography and ``latency_matrix`` (ms, square
    over the regions, possibly asymmetric) its pairwise RTTs; helpers
    place into contiguous region blocks unless ``helper_regions`` pins
    an explicit per-helper placement, and viewers observe every helper
    through the RTT from its region to ``viewer_region``.
    ``helper_classes`` maps registered helper-class names (``seedbox``,
    ``residential``, ``mobile``, or plug-ins; see
    :mod:`repro.network.classes`) to population fractions — assignment
    is deterministic, contiguous and key-order-independent.
    ``latency_ms`` / ``jitter_ms`` / ``loss_rate`` are global per-link
    parameters added on top of region and class contributions;
    ``rtt_reference_ms`` is the RTT below which latency costs no
    throughput.  Links with any positive jitter redraw their RTT every
    round from a dedicated child RNG stream.
    """

    regions: Tuple[str, ...] = ()
    latency_matrix: Optional[Tuple[Tuple[float, ...], ...]] = None
    helper_regions: Optional[Tuple[int, ...]] = None
    viewer_region: int = 0
    helper_classes: Mapping[str, float] = field(default_factory=dict)
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    rtt_reference_ms: float = 50.0

    def __post_init__(self) -> None:
        _check_float_fields(self, "network")
        object.__setattr__(
            self, "regions", tuple(str(name) for name in self.regions)
        )
        if self.latency_matrix is not None:
            object.__setattr__(
                self,
                "latency_matrix",
                tuple(tuple(float(v) for v in row) for row in self.latency_matrix),
            )
        object.__setattr__(
            self, "helper_regions", _opt_tuple(self.helper_regions)
        )
        object.__setattr__(
            self,
            "viewer_region",
            require_non_negative_int(self.viewer_region, "network viewer_region"),
        )
        if not isinstance(self.helper_classes, Mapping) or any(
            not isinstance(key, str) for key in self.helper_classes
        ):
            raise ValueError(
                "network helper_classes must be a mapping with string keys"
            )
        object.__setattr__(
            self,
            "helper_classes",
            {name: float(frac) for name, frac in self.helper_classes.items()},
        )
        if self.regions:
            if len(set(self.regions)) != len(self.regions):
                raise ValueError(
                    f"network regions must be unique, got {self.regions}"
                )
            if not 0 <= self.viewer_region < len(self.regions):
                raise ValueError(
                    f"network viewer_region {self.viewer_region} must index "
                    f"the {len(self.regions)} region(s)"
                )
        elif self.latency_matrix is not None:
            raise ValueError("network latency_matrix requires regions")
        elif self.helper_regions is not None:
            raise ValueError("network helper_regions requires regions")
        elif self.viewer_region != 0:
            raise ValueError("network viewer_region requires regions")
        if self.latency_matrix is not None:
            rows = self.latency_matrix
            if len(rows) != len(self.regions) or any(
                len(row) != len(self.regions) for row in rows
            ):
                raise ValueError(
                    "network latency_matrix must be square over the "
                    f"{len(self.regions)} region(s)"
                )
            if any(v < 0 or not np.isfinite(v) for row in rows for v in row):
                raise ValueError(
                    "network latency_matrix entries must be finite and >= 0"
                )
        if self.helper_regions is not None and any(
            not 0 <= int(r) < len(self.regions) for r in self.helper_regions
        ):
            raise ValueError(
                "network helper_regions entries must index the "
                f"{len(self.regions)} region(s)"
            )
        if self.helper_classes:
            from repro.network.classes import HELPER_CLASSES

            for name in self.helper_classes:
                HELPER_CLASSES.get(name)  # raises with the menu
            fractions = list(self.helper_classes.values())
            if any(f < 0 or not np.isfinite(f) for f in fractions):
                raise ValueError(
                    "network helper_classes fractions must be finite and >= 0"
                )
            if sum(fractions) <= 0:
                raise ValueError(
                    "network helper_classes fractions must sum to > 0"
                )
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("network latency_ms/jitter_ms must be >= 0")
        if not 0 <= self.loss_rate < 1:
            raise ValueError("network loss_rate must lie in [0, 1)")
        if self.rtt_reference_ms <= 0:
            raise ValueError("network rtt_reference_ms must be positive")

    @property
    def active(self) -> bool:
        """Whether any field requests a link layer (default = off).

        An inactive section is a guaranteed no-op: the capacity pipeline
        skips it entirely, so all-default specs stay bit-identical to
        the pre-network layout.
        """
        return bool(
            self.regions
            or self.helper_classes
            or self.latency_ms > 0
            or self.jitter_ms > 0
            or self.loss_rate > 0
        )

    def compile(self, num_helpers: int):
        """The per-helper :class:`~repro.network.links.LinkParameters`."""
        from repro.network.links import compile_link_parameters

        return compile_link_parameters(
            num_helpers,
            regions=self.regions,
            latency_matrix=self.latency_matrix,
            helper_regions=self.helper_regions,
            viewer_region=self.viewer_region,
            helper_classes=self.helper_classes,
            latency_ms=self.latency_ms,
            jitter_ms=self.jitter_ms,
            loss_rate=self.loss_rate,
            rtt_reference_ms=self.rtt_reference_ms,
        )

    def apply(self, process, num_helpers: int, rng: Seedish = None):
        """Wrap ``process`` in the compiled link layer."""
        from repro.network.links import LinkEffectProcess

        params = self.compile(num_helpers)
        return LinkEffectProcess(
            process,
            latency_ms=params.latency_ms,
            jitter_ms=params.jitter_ms,
            loss_rate=params.loss_rate,
            capacity_scale=params.capacity_scale,
            rtt_reference_ms=params.rtt_reference_ms,
            rng=rng,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class LearnerSpec:
    """The helper-selection strategy family and its hyper-parameters.

    ``name`` resolves through the learner registry on either backend.
    ``u_max`` is the utility normalizer; ``None`` defaults to the highest
    capacity level.  ``dtype`` selects the vectorized banks' storage
    precision (``"float32"`` is vectorized-backend-only).  ``bank``
    selects the regret storage family: ``"dense"`` keeps the full
    per-peer regret tensor, ``"topk"`` the sparse top-k blocks of
    :class:`~repro.runtime.learner_bank.TopKRegretBank` tracking ``topk``
    arms per peer (vectorized backend, regret families only; the memory
    unlock for giant helper counts).  ``engine`` is parse-only:
    ``"auto"`` and ``"grouped"`` are accepted and have no effect (every
    family has one bank contract); the removed ``"per_channel"`` raises.

    ``shards`` > 1 channel-partitions the learner banks across that many
    worker processes (:class:`~repro.runtime.sharded.ShardedSystem`) —
    the single-run parallelism unlock.  Traces are bit-identical to the
    single-process system for any shard count, so ``shards`` is a pure
    execution knob: it is excluded from the result digest and composes
    with every other learner field (vectorized backend,
    ``shards <= num_channels``).
    """

    name: str = "r2hs"
    epsilon: float = 0.05
    delta: float = 0.1
    mu: Optional[float] = None
    u_max: Optional[float] = None
    dtype: str = "float64"
    bank: str = "dense"
    topk: int = 32
    engine: str = "auto"
    shards: int = 1

    def __post_init__(self) -> None:
        _check_float_fields(self, "learner")
        LEARNERS.get(self.name)  # raises with the menu
        if self.dtype not in SPEC_DTYPES:
            raise ValueError(
                f"dtype must be one of {SPEC_DTYPES}, got {self.dtype!r}"
            )
        if self.bank not in SPEC_BANKS:
            raise ValueError(
                f"bank must be one of {SPEC_BANKS}, got {self.bank!r}"
            )
        if self.engine == "per_channel":
            raise ValueError(
                'learner.engine "per_channel" was removed: every learner '
                "family runs behind one bank contract; drop the field"
            )
        if self.engine not in SPEC_ENGINES:
            raise ValueError(
                f"engine must be one of {SPEC_ENGINES}, got {self.engine!r}"
            )
        if not _is_int(self.topk) or self.topk < 2:
            raise ValueError(
                f"topk must be an integer >= 2, got {self.topk!r}"
            )
        if not _is_int(self.shards) or self.shards < 1:
            raise ValueError(
                f"shards must be an integer >= 1, got {self.shards!r}"
            )
        if not 0 < self.epsilon <= 1 or not 0 < self.delta < 1:
            raise ValueError("epsilon in (0,1], delta in (0,1) required")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LearnerSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class ChurnSpec:
    """Peer join/leave dynamics (all zeros = a fixed population)."""

    arrival_rate: float = 0.0
    mean_lifetime: Optional[float] = None
    initial_peer_lifetimes: bool = False

    def __post_init__(self) -> None:
        _check_float_fields(self, "churn")
        require_bool(self.initial_peer_lifetimes, "churn initial_peer_lifetimes")
        if self.arrival_rate < 0:
            raise ValueError("churn arrival_rate must be >= 0")
        if self.mean_lifetime is not None and self.mean_lifetime <= 0:
            raise ValueError("churn mean_lifetime must be positive or None")
        # Lifetimes are drawn for arrivals (and, optionally, the initial
        # population); with neither, mean_lifetime would be inert.
        if (
            self.mean_lifetime is not None
            and self.arrival_rate <= 0
            and not self.initial_peer_lifetimes
        ):
            raise ValueError(
                "churn mean_lifetime requires arrival_rate > 0 or "
                "initial_peer_lifetimes"
            )

    def to_config(self) -> ChurnConfig:
        return ChurnConfig(
            arrival_rate=self.arrival_rate,
            mean_lifetime=self.mean_lifetime,
            initial_peer_lifetimes=self.initial_peer_lifetimes,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class MetricsSpec:
    """Which registered metrics a run reports.

    An empty ``metrics`` tuple means the trace's headline ``summary()``
    dict.  ``record_peers`` enables dense per-peer recording (fixed
    populations only).
    """

    metrics: Tuple[str, ...] = ()
    record_peers: bool = False

    def __post_init__(self) -> None:
        require_bool(self.record_peers, "metrics record_peers")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for name in self.metrics:
            METRICS.get(name)  # raises with the menu

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class TelemetrySpec:
    """Instrumentation collection for a run (off by default).

    ``sinks`` are ``"name[:arg]"`` references resolved through the
    telemetry sink registry — ``"memory"``, ``"console"``,
    ``"jsonl:PATH"`` or a plug-in registered with
    :func:`repro.telemetry.register_sink`.  Names are validated at spec
    construction, so a typo fails with the registered menu instead of
    deep inside a worker.  ``flush_interval`` emits a snapshot to the
    sinks every that many rounds (0 = final snapshot only);
    ``sample_period`` records process gauges (RSS, GC) every that many
    rounds (0 = off).  When ``enabled`` is false the run pays only the
    null-object attribute calls — the zero-overhead-off contract the CI
    latency guards hold the round loop to.
    """

    enabled: bool = False
    sinks: Tuple[str, ...] = ()
    flush_interval: int = 0
    sample_period: int = 0

    def __post_init__(self) -> None:
        require_bool(self.enabled, "telemetry enabled")
        object.__setattr__(
            self, "sinks", tuple(str(ref) for ref in self.sinks)
        )
        for ref in self.sinks:
            parse_sink_reference(ref)  # raises with the registered menu
        if not _is_int(self.flush_interval) or self.flush_interval < 0:
            raise ValueError(
                "telemetry flush_interval must be an integer >= 0 "
                f"(rounds between flushes; 0 = final only), got "
                f"{self.flush_interval!r}"
            )
        if not _is_int(self.sample_period) or self.sample_period < 0:
            raise ValueError(
                "telemetry sample_period must be an integer >= 0 "
                f"(rounds between resource samples; 0 = off), got "
                f"{self.sample_period!r}"
            )

    def session(self):
        """A :func:`repro.telemetry.session` scope matching this spec."""
        return telemetry_session(
            enabled=self.enabled,
            sinks=self.sinks,
            flush_interval=self.flush_interval,
            sample_period=self.sample_period,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySpec":
        _check_unknown_keys(cls, data)
        data = dict(data)
        if "sinks" in data:
            data["sinks"] = tuple(data["sinks"])
        return cls(**data)


#: Failure policies an :class:`ExecutionSpec` can request.
EXECUTION_ON_FAILURE = ("raise", "record")


@dataclass(frozen=True)
class ExecutionSpec:
    """Sweep-execution fault-tolerance policy (no retries by default).

    Tunes how :class:`~repro.analysis.parallel.ParallelRunner`'s
    supervisor (:mod:`repro.analysis.supervision`) runs worker
    processes.  Every multi-worker sweep runs under it, one process per
    cell; all-default means a dead worker or a raising cell fails its
    cell on the first attempt and the sweep raises once every other cell
    has finished.  Any non-default field also puts a one-worker sweep
    under the supervisor instead of running it inline, adding
    per-attempt wall-clock limits, heartbeat liveness, and retry with
    exponential backoff + deterministic jitter on worker death.

    ``max_retries`` is the number of *extra* attempts after the first;
    retried cells reuse the cell's derived seed, so a retry is
    bit-identical to a first-try run.  ``cell_timeout`` (seconds) kills
    and retries an attempt that outlives it — the only way out of a cell
    that hangs while its heartbeat thread keeps beating.
    ``heartbeat_interval`` (seconds; 0 = off) makes workers emit
    liveness beats; a worker silent for ~4 intervals is presumed frozen
    (SIGSTOP, scheduler wedge) and is killed and retried.  Retry ``k``
    sleeps ``min(backoff_max, backoff_base * 2**(k-1)) * (1 + jitter)``
    with jitter drawn deterministically from the cell seed.
    ``on_failure`` decides what happens to a cell that exhausts its
    retries: ``"raise"`` aborts the sweep with a structured
    :class:`~repro.analysis.supervision.SweepError`; ``"record"`` lets
    the sweep complete and ships the failure (attempt history included)
    on :attr:`~repro.analysis.sweeps.SweepResult.failures`, with the
    cell's row rendered as a hole in ``to_table()``.

    Like every spec section this JSON round-trips; unlike the others it
    never influences results — only whether and when they arrive — so it
    is excluded from :meth:`ExperimentSpec.result_digest`, and changing
    a retry knob does not invalidate a results store.
    """

    max_retries: int = 0
    cell_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    heartbeat_interval: float = 0.0
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        _check_float_fields(self, "execution")
        if not _is_int(self.max_retries) or self.max_retries < 0:
            raise ValueError(
                "execution max_retries must be an integer >= 0, got "
                f"{self.max_retries!r}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                "execution cell_timeout must be positive seconds or None"
            )
        if self.backoff_base < 0:
            raise ValueError("execution backoff_base must be >= 0")
        if self.backoff_max < self.backoff_base:
            raise ValueError(
                "execution backoff_max must be >= backoff_base "
                f"({self.backoff_max} < {self.backoff_base})"
            )
        if self.heartbeat_interval < 0:
            raise ValueError("execution heartbeat_interval must be >= 0")
        if self.on_failure not in EXECUTION_ON_FAILURE:
            raise ValueError(
                f"execution on_failure must be one of {EXECUTION_ON_FAILURE}, "
                f"got {self.on_failure!r}"
            )

    @property
    def supervised(self) -> bool:
        """Whether any field requests the supervised dispatcher."""
        return (
            self.max_retries > 0
            or self.cell_timeout is not None
            or self.heartbeat_interval > 0
            or self.on_failure != "raise"
        )

    def retry_delay(self, seed: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds.

        Deterministic in ``(seed, attempt)`` — the jitter decorrelates
        cells without perturbing reproducibility of the schedule itself.
        """
        import random

        if attempt < 1:
            raise ValueError("retry attempt numbering starts at 1")
        base = min(self.backoff_max, self.backoff_base * 2.0 ** (attempt - 1))
        jitter = random.Random((int(seed) * 1000003) ^ attempt).random()
        return base * (1.0 + jitter)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of spec overrides plus a replication count.

    ``grid`` maps override paths — dotted spec-field paths such as
    ``"learner.epsilon"`` or top-level fields such as ``"backend"`` — to
    value lists; the cross product is evaluated, each cell ``replications``
    times with independently derived seeds.
    """

    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    replications: int = 1

    def __post_init__(self) -> None:
        grid = {}
        for name, values in dict(self.grid).items():
            # Any iterable of values works (list, tuple, ndarray, range),
            # but a bare scalar — notably a string, which would iterate
            # into per-character cells — is a spec mistake.
            if isinstance(values, (str, bytes)):
                raise ValueError(
                    f"sweep grid entry {name!r} must be a list of values, "
                    f"got the string {values!r}"
                )
            try:
                grid[str(name)] = tuple(values)
            except TypeError:
                raise ValueError(
                    f"sweep grid entry {name!r} must be a list of values, "
                    f"got {values!r}"
                ) from None
        object.__setattr__(self, "grid", grid)
        object.__setattr__(
            self,
            "replications",
            require_positive_int(self.replications, "sweep replications"),
        )
        for name, values in self.grid.items():
            if not values:
                raise ValueError(f"sweep grid entry {name!r} must not be empty")

    def parameter_sets(self) -> List[Dict[str, Any]]:
        """All cells, in grid order: override dicts (plus ``replication``)."""
        names = list(self.grid)
        combos = (
            itertools.product(*(self.grid[name] for name in names))
            if names
            else [()]
        )
        sets: List[Dict[str, Any]] = []
        for combo in combos:
            base = dict(zip(names, combo))
            for r in range(self.replications):
                cell = dict(base)
                if self.replications > 1:
                    cell["replication"] = r
                sets.append(cell)
        return sets

    def to_dict(self) -> Dict[str, Any]:
        return {
            "grid": {name: list(values) for name, values in self.grid.items()},
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _check_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class RunResult:
    """One executed spec: the trace plus the spec's evaluated metrics.

    ``telemetry`` carries the run's final instrumentation snapshot when
    the spec enabled collection (``None`` otherwise).
    """

    spec: "ExperimentSpec"
    trace: Any
    metrics: Dict[str, Any]
    telemetry: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable experiment description.

    See the module docstring for the facade methods.  All component names
    (``backend``, ``capacity.backend``, ``learner.name``,
    ``metrics.metrics``) are validated against the registries at
    construction, so a malformed spec fails immediately — with the list
    of registered names — rather than deep inside system construction.
    """

    name: str = "experiment"
    backend: str = "vectorized"
    rounds: int = 200
    seed: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    capacity: CapacitySpec = field(default_factory=CapacitySpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    sweep_spec: Optional[SweepSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "seed", require_non_negative_int(self.seed, "seed")
        )
        object.__setattr__(
            self, "rounds", require_positive_int(self.rounds, "rounds")
        )
        if self.backend not in SYSTEM_BACKENDS:
            raise ValueError(
                f"backend must be one of {SYSTEM_BACKENDS}, got {self.backend!r}"
            )
        if self.learner.dtype == "float32" and self.backend == "scalar":
            raise ValueError(
                "dtype float32 requires the vectorized backend "
                "(scalar learners store float64 state); use "
                'backend="vectorized" or dtype="float64"'
            )
        entry = LEARNERS.get(self.learner.name)
        if self.backend == "scalar" and entry.scalar is None:
            raise ValueError(
                f"learner {self.learner.name!r} has no scalar implementation"
            )
        if self.backend == "vectorized" and entry.bank is None:
            raise ValueError(
                f"learner {self.learner.name!r} has no vectorized bank"
            )
        if self.learner.bank == "topk":
            if self.backend == "scalar":
                raise ValueError(
                    "bank 'topk' requires the vectorized backend (scalar "
                    "learners keep per-object regret state); use "
                    'backend="vectorized" or bank="dense"'
                )
            if not entry.sparse:
                raise ValueError(
                    f"learner {self.learner.name!r} has no sparse top-k "
                    "bank; families registered with sparse=True: "
                    f"{[n for n in LEARNERS if LEARNERS.get(n).sparse]}"
                )
        if self.learner.shards > 1:
            if self.backend != "vectorized":
                raise ValueError(
                    "learner.shards applies to the vectorized backend "
                    "(sharding partitions the learner banks); use "
                    'backend="vectorized" or shards=1'
                )
            if self.learner.shards > self.topology.num_channels:
                raise ValueError(
                    "learner.shards partitions channels, so it must not "
                    f"exceed num_channels={self.topology.num_channels}; "
                    f"got {self.learner.shards}"
                )
        # Cross-section checks the sections cannot do alone: explicit
        # helper placement must cover exactly the topology's helpers.
        if (
            self.network.helper_regions is not None
            and len(self.network.helper_regions) != self.topology.num_helpers
        ):
            raise ValueError(
                "network helper_regions must list one region per helper "
                f"(got {len(self.network.helper_regions)} entries for "
                f"num_helpers={self.topology.num_helpers})"
            )
        # Helpers partition round-robin, so the smallest channel gets
        # floor(H/C) of them; the learner family's action set must fit.
        topo = self.topology
        if topo.num_helpers // topo.num_channels < entry.min_actions:
            raise ValueError(
                f"learner {self.learner.name!r} needs at least "
                f"{entry.min_actions} helper(s) per channel; "
                f"num_helpers={topo.num_helpers} over "
                f"num_channels={topo.num_channels} leaves a channel with "
                f"{topo.num_helpers // topo.num_channels}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain nested dict; ``from_dict`` round-trips it."""
        return {
            "name": self.name,
            "backend": self.backend,
            "rounds": self.rounds,
            "seed": self.seed,
            "topology": self.topology.to_dict(),
            "capacity": self.capacity.to_dict(),
            "network": self.network.to_dict(),
            "learner": self.learner.to_dict(),
            "churn": self.churn.to_dict(),
            "metrics": self.metrics.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "execution": self.execution.to_dict(),
            "sweep": None if self.sweep_spec is None else self.sweep_spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Sections are optional (defaults apply); unknown keys raise with
        the allowed field names.  A wrong-typed value (a string where a
        number belongs, a list where a section does) raises
        :class:`ValueError` naming its section, like every other
        malformed spec.
        """
        data = dict(data)
        sweep = data.pop("sweep", None)
        sections = {
            "topology": TopologySpec,
            "capacity": CapacitySpec,
            "network": NetworkSpec,
            "learner": LearnerSpec,
            "churn": ChurnSpec,
            "metrics": MetricsSpec,
            "telemetry": TelemetrySpec,
            "execution": ExecutionSpec,
        }
        kwargs: Dict[str, Any] = {}
        for key, section_cls in sections.items():
            if key in data:
                kwargs[key] = _build(
                    f"section {key!r}", section_cls.from_dict, data.pop(key) or {}
                )
        allowed_scalars = {"name", "backend", "rounds", "seed"}
        unknown = sorted(set(data) - allowed_scalars)
        if unknown:
            raise ValueError(
                f"unknown ExperimentSpec field(s) {unknown}; allowed: "
                f"{sorted(allowed_scalars | set(sections) | {'sweep'})}"
            )
        kwargs.update(data)
        if sweep is not None:
            kwargs["sweep_spec"] = _build("section 'sweep'", SweepSpec.from_dict, sweep)
        return _build("top-level field", lambda fields: cls(**fields), kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The spec as JSON text (tuples serialize as lists)."""
        return json.dumps(self.to_dict(), indent=indent)

    def spec_digest(self) -> str:
        """A short stable content hash of the spec.

        Sweep workers stamp it (plus the cell index) onto failure
        reports, and profiling records carry it so a benchmark number can
        be traced back to the exact experiment that produced it.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def result_digest(self) -> str:
        """The content hash that keys the results store.

        Like :meth:`spec_digest` but over the *result-determining* fields
        only: the ``sweep`` section (cell parameters live in the per-cell
        digest) and the ``execution`` section (retry policy never changes
        what a cell computes) are excluded, so widening a grid or tuning
        timeouts keeps every already-committed cell a cache hit.
        """
        data = self.to_dict()
        data.pop("sweep", None)
        data.pop("execution", None)
        # Shard count is a pure execution knob: the sharded system is
        # bit-identical to the single-process one, so results keyed
        # without it stay cache hits across shard-count changes.  The
        # parse-only engine field changes nothing either.
        data["learner"].pop("shards", None)
        data["learner"].pop("engine", None)
        canonical = json.dumps(data, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse JSON text produced by :meth:`to_json` (or hand-written)."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        """Write the spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentSpec":
        """A new spec with dotted-path fields replaced.

        ``{"learner.epsilon": 0.1, "backend": "scalar"}`` — see
        :func:`apply_overrides`.
        """
        return ExperimentSpec.from_dict(apply_overrides(self.to_dict(), overrides))

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    @property
    def u_max(self) -> float:
        """Utility normalizer: explicit, or the highest capacity level."""
        if self.learner.u_max is not None:
            return float(self.learner.u_max)
        return float(max(self.capacity.levels))

    def resolved_capacity_backend(self) -> str:
        """``capacity.backend`` with ``"auto"`` following the system backend."""
        if self.capacity.backend != "auto":
            return self.capacity.backend
        return "vectorized" if self.backend == "vectorized" else "scalar"

    def to_config(self):
        """The :class:`~repro.sim.system.SystemConfig` both backends share."""
        from repro.sim.system import SystemConfig

        topo = self.topology
        cap = self.capacity
        return SystemConfig(
            num_peers=topo.num_peers,
            num_helpers=topo.num_helpers,
            num_channels=topo.num_channels,
            channel_bitrates=topo.channel_bitrates,
            channel_popularity=topo.channel_popularity,
            bandwidth_levels=cap.levels,
            stay_probability=cap.stay_probability,
            round_duration=topo.round_duration,
            server_capacity=(
                float("inf") if cap.server_capacity is None else cap.server_capacity
            ),
            churn=self.churn.to_config(),
            channel_switch_rate=topo.channel_switch_rate,
            record_peers=self.metrics.record_peers,
            popularity_drift_rate=topo.popularity_drift_rate,
            popularity_drift_period=topo.popularity_drift_period,
        )

    def scalar_learner_factory(self):
        """A per-peer :data:`~repro.sim.system.LearnerFactory` for this spec."""
        entry = LEARNERS.get(self.learner.name)
        if entry.scalar is None:
            raise ValueError(
                f"learner {self.learner.name!r} has no scalar implementation"
            )
        hp = self.learner
        return entry.scalar(
            epsilon=hp.epsilon, delta=hp.delta, mu=hp.mu, u_max=self.u_max
        )

    def bank_factory(self):
        """The spec's :data:`~repro.runtime.learner_bank.BankFactory`."""
        entry = LEARNERS.get(self.learner.name)
        if entry.bank is None:
            raise ValueError(
                f"learner {self.learner.name!r} has no vectorized bank"
            )
        hp = self.learner
        kwargs = dict(
            epsilon=hp.epsilon,
            delta=hp.delta,
            mu=hp.mu,
            u_max=self.u_max,
            dtype=np.dtype(self.learner.dtype),
        )
        if hp.bank != "dense":
            # Only sparse-capable entries (validated at construction) see
            # the extra kwargs, so plain third-party builders keep the
            # original five-argument contract.
            kwargs.update(bank=hp.bank, topk=hp.topk)
        return entry.bank(**kwargs)

    def build_capacity_process(self, rng: Seedish = None):
        """The spec's helper-bandwidth environment, via the registries.

        With ``capacity.transforms`` and/or an active ``network``
        section, the base process feeds the transform pipeline: the rng
        becomes a parent stream, the backend factory receives the first
        child, and every transform — then the network link layer —
        receives its own child in order.  Stages therefore keep
        *positionally* deterministic streams: editing stage ``k`` never
        perturbs stages before it.  With neither (the historical shape)
        the rng passes straight to the backend factory, so pre-pipeline
        specs stay bit-identical.
        """
        factory = CAPACITY_BACKENDS.get(self.resolved_capacity_backend())
        transforms = self.capacity.transforms
        network_active = self.network.active
        kwargs = dict(
            levels=self.capacity.levels,
            stay_probability=self.capacity.stay_probability,
            rng=self.seed if rng is None else rng,
        )
        if not transforms and not network_active:
            return factory(self.topology.num_helpers, **kwargs)
        parent = as_generator(kwargs["rng"])
        kwargs["rng"] = spawn(parent)
        process = factory(self.topology.num_helpers, **kwargs)
        for transform in transforms:
            entry = CAPACITY_TRANSFORMS.get(transform.name)
            process = entry.factory(
                process, rng=spawn(parent), **transform.options
            )
        if network_active:
            process = self.network.apply(
                process, self.topology.num_helpers, rng=spawn(parent)
            )
        return process

    def build_population(self, rng: Seedish = None):
        """A bare :class:`~repro.core.population.LearnerPopulation`.

        For repeated-game experiments (the paper's Figs. 1–4 pipelines)
        that advance a population directly against a capacity process,
        without the full streaming substrate.  Uses the spec's regret
        hyper-parameters; the learner *family* distinction does not apply
        (the population is the single RTHS/R2HS recursion), but the
        storage family does: ``learner.bank = "topk"`` returns the sparse
        :class:`~repro.core.sparse_population.TopKPopulation` instead of
        allocating the dense ``(N, H, H)`` tensor the spec opted out of.
        """
        hp = self.learner
        kwargs = dict(
            num_peers=self.topology.num_peers,
            num_helpers=self.topology.num_helpers,
            epsilon=hp.epsilon,
            mu=hp.mu,
            delta=hp.delta,
            u_max=self.u_max,
            rng=self.seed if rng is None else rng,
            dtype=np.dtype(hp.dtype),
        )
        if hp.bank == "topk":
            from repro.core.sparse_population import TopKPopulation

            return TopKPopulation(k=hp.topk, **kwargs)
        from repro.core.population import LearnerPopulation

        return LearnerPopulation(**kwargs)

    def build(self, rng: Seedish = None, capacity_process=None):
        """A ready-to-run system on the spec's backend.

        ``rng`` defaults to the spec's ``seed``.  The capacity process is
        built through the registry from a child generator spawned *first*
        (mirroring the systems' internal construction order, so specs
        reproduce the pre-spec RNG streams bit-for-bit); pass
        ``capacity_process`` to inject a recorded trace for paired runs.
        """
        parent = as_generator(self.seed if rng is None else rng)
        config = self.to_config()
        if capacity_process is None:
            capacity_process = self.build_capacity_process(rng=spawn(parent))
        if self.backend == "vectorized":
            if self.learner.shards > 1:
                from repro.runtime import ShardedSystem

                return ShardedSystem(
                    config,
                    self.bank_factory(),
                    shards=self.learner.shards,
                    rng=parent,
                    capacity_process=capacity_process,
                    dtype=np.dtype(self.learner.dtype),
                )
            from repro.runtime import VectorizedStreamingSystem

            return VectorizedStreamingSystem(
                config,
                self.bank_factory(),
                rng=parent,
                capacity_process=capacity_process,
                dtype=np.dtype(self.learner.dtype),
            )
        from repro.sim.system import StreamingSystem

        return StreamingSystem(
            config,
            self.scalar_learner_factory(),
            rng=parent,
            capacity_process=capacity_process,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def metrics_of(self, trace) -> Dict[str, Any]:
        """Evaluate the spec's metric set on a trace."""
        if not self.metrics.metrics:
            return dict(trace.summary())
        return {name: METRICS.get(name)(trace) for name in self.metrics.metrics}

    def run(self, seed: Seedish = None) -> RunResult:
        """Build, run ``rounds`` rounds, and evaluate the metrics.

        When the spec's :class:`TelemetrySpec` is enabled, the build and
        the round loop execute inside a telemetry session (instruments
        bind at system construction) and the final snapshot rides back on
        :attr:`RunResult.telemetry`; the session's sinks are flushed and
        closed before returning.
        """
        if not self.telemetry.enabled:
            system = self.build(rng=seed)
            try:
                trace = system.run(self.rounds)
            finally:
                # Frees the system now rather than at the next garbage
                # collection (and a sharded system's workers and shared
                # memory); the trace stays readable.
                system.close()
            return RunResult(
                spec=self, trace=trace, metrics=self.metrics_of(trace)
            )
        with self.telemetry.session() as tel:
            system = self.build(rng=seed)
            try:
                trace = system.run(self.rounds)
            finally:
                system.close()
            snapshot = tel.snapshot()
        return RunResult(
            spec=self,
            trace=trace,
            metrics=self.metrics_of(trace),
            telemetry=snapshot,
        )

    def sweep(
        self,
        workers: Optional[int] = 1,
        rng: Seedish = None,
        runner=None,
        sweep: Optional[SweepSpec] = None,
        store=None,
    ):
        """Fan the spec's :class:`SweepSpec` across worker processes.

        Returns a :class:`~repro.analysis.sweeps.SweepResult` whose cell
        parameters are the grid overrides and whose metrics are each
        cell's :meth:`run` output (array-valued metrics included; they
        come home pickled through each worker's pipe).  ``rng`` defaults to
        the spec's ``seed``; seeds are derived per cell in grid order, so
        results are worker-count-independent.

        The spec's :class:`ExecutionSpec` governs supervision (timeouts,
        heartbeats, retry with backoff); ``store`` — a directory path or
        a :class:`~repro.store.ResultsStore` — makes execution durable:
        committed cells are consulted before dispatch (cache hit = no
        worker) and every completed cell commits immediately, so an
        interrupted sweep resumes for free.  The store key is
        :meth:`result_digest` plus the per-cell parameter/seed digest.

        Workers rebuild the spec from its dict form, so specs naming
        third-party registered components need those registrations
        available in the workers (automatic under the ``fork`` start
        method; see :mod:`repro.spec.registry` for ``spawn``).
        """
        import functools

        from repro.analysis.parallel import ParallelRunner
        from repro.spec.cells import run_spec_cell

        sweep_spec = sweep if sweep is not None else self.sweep_spec
        if sweep_spec is None:
            sweep_spec = SweepSpec()
        if runner is None:
            runner = ParallelRunner(workers=workers)
        if store is not None and not hasattr(store, "get"):
            from repro.store import ResultsStore

            store = ResultsStore(store)
        cell_fn = functools.partial(run_spec_cell, self.to_dict())
        return runner.run_sweep(
            sweep_spec,
            cell_fn,
            rng=self.seed if rng is None else rng,
            execution=self.execution,
            store=store,
            spec_digest=self.result_digest(),
        )
