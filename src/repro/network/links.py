"""Link models: latency, jitter and loss folding into observed capacity.

Peers in the paper observe a helper's upload bandwidth directly.  With a
network in between they observe *goodput*: what survives the path.
:class:`LinkEffectProcess` wraps any capacity process and scales each
helper's capacity by a per-link throughput factor

``factor_j = capacity_scale_j * (1 - loss_rate_j) * min(1, rtt_ref / rtt_j(t))``

where ``rtt_j(t) = latency_ms_j + |N(0, jitter_ms_j)|`` redraws every
stage.  The model is deliberately first-order — loss thins goodput
multiplicatively and RTT beyond a reference window degrades it
inversely (the fixed-window throughput ceiling ``window / rtt``) — but
it reproduces the qualitative regime that matters for helper selection:
distant, lossy or wireless helpers *look* slower than their uplink, and
jittery ones look *noisy*, so the learned equilibrium concentrates on
the short-fat links.

Everything is array-at-a-time over the ``(H,)`` helper axis: one
vectorized normal draw and one multiply per stage, so wrapping the
vectorized backend adds O(H) numpy work and no per-helper Python in the
round hot path.

:class:`ClampedCapacityProcess` is the degenerate-but-useful companion:
a hard per-helper floor/ceiling (an access-link cap), and — because
clamping does not commute with scaling — the canonical witness that
transform pipeline order matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.game.repeated_game import CapacityProcess
from repro.util.rng import Seedish, as_generator


def _per_helper(value, num_helpers: int, name: str) -> np.ndarray:
    """Broadcast a scalar or length-H sequence to a float ``(H,)`` array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(num_helpers, float(arr))
    if arr.shape != (num_helpers,):
        raise ValueError(
            f"{name} must be a scalar or a length-{num_helpers} sequence, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    return arr


class LinkEffectProcess:
    """Wrap a capacity process with per-link path effects.

    ``latency_ms`` / ``jitter_ms`` / ``loss_rate`` / ``capacity_scale``
    are scalars or per-helper sequences; ``rtt_reference_ms`` is the RTT
    below which latency costs nothing (the throughput window).  With any
    positive jitter the per-stage RTT redraws from the wrapped ``rng``
    stream; an all-deterministic configuration consumes no randomness at
    all, so adding a jitter-free link layer never perturbs sibling RNG
    streams.
    """

    def __init__(
        self,
        base: CapacityProcess,
        *,
        latency_ms=0.0,
        jitter_ms=0.0,
        loss_rate=0.0,
        capacity_scale=1.0,
        rtt_reference_ms: float = 50.0,
        rng: Seedish = None,
    ) -> None:
        num_helpers = base.num_helpers
        self._base = base
        self._latency = _per_helper(latency_ms, num_helpers, "latency_ms")
        self._jitter = _per_helper(jitter_ms, num_helpers, "jitter_ms")
        self._loss = _per_helper(loss_rate, num_helpers, "loss_rate")
        self._scale = _per_helper(capacity_scale, num_helpers, "capacity_scale")
        if np.any(self._latency < 0) or np.any(self._jitter < 0):
            raise ValueError("latency_ms and jitter_ms must be >= 0")
        if np.any(self._loss < 0) or np.any(self._loss >= 1):
            raise ValueError("loss_rate must lie in [0, 1)")
        if np.any(self._scale < 0):
            raise ValueError("capacity_scale must be >= 0")
        if rtt_reference_ms <= 0:
            raise ValueError("rtt_reference_ms must be positive")
        self._rtt_reference = float(rtt_reference_ms)
        self._jittered = bool(np.any(self._jitter > 0))
        self._rng = as_generator(rng) if self._jittered else None
        self._static = self._scale * (1.0 - self._loss)
        self._factors = self._static * self._latency_factor(self._latency)
        self._rtt = self._latency.copy()

    def _latency_factor(self, rtt: np.ndarray) -> np.ndarray:
        # min(1, ref / rtt) without a divide-by-zero branch: the
        # denominator is clipped to ref, where the ratio is exactly 1.
        return self._rtt_reference / np.maximum(rtt, self._rtt_reference)

    @property
    def num_helpers(self) -> int:
        """Helper count of the wrapped process."""
        return self._base.num_helpers

    @property
    def rtt_ms(self) -> np.ndarray:
        """Current per-helper RTT (latency plus this stage's jitter draw)."""
        return self._rtt.copy()

    def capacities(self) -> np.ndarray:
        """Base capacities scaled by the per-link throughput factors."""
        caps = np.asarray(self._base.capacities(), dtype=float)
        return caps * self._factors

    def minimum_capacities(self) -> np.ndarray:
        """Per-helper lower bound over time.

        Jitter is unbounded (``|N(0, s)|``), so a jittered link's factor
        has infimum zero; deterministic links keep the exact scaled
        bound.
        """
        base_min = np.asarray(self._base.minimum_capacities(), dtype=float)
        bound = base_min * self._static * self._latency_factor(self._latency)
        bound[self._jitter > 0] = 0.0
        return bound

    def advance(self) -> None:
        """Advance the base process, then redraw the jittered RTTs."""
        self._base.advance()
        if self._jittered:
            noise = np.abs(self._rng.standard_normal(self.num_helpers))
            self._rtt = self._latency + noise * self._jitter
            self._factors = self._static * self._latency_factor(self._rtt)


class ClampedCapacityProcess:
    """Hard per-helper capacity floor/ceiling (an access-link cap).

    Clipping is monotone, so the clamp of the wrapped process's lower
    bound is a valid lower bound of the clamped process.
    """

    def __init__(
        self,
        base: CapacityProcess,
        *,
        min_capacity: float = 0.0,
        max_capacity: Optional[float] = None,
    ) -> None:
        if min_capacity < 0:
            raise ValueError("min_capacity must be >= 0")
        if max_capacity is not None and max_capacity < min_capacity:
            raise ValueError(
                f"max_capacity {max_capacity} must be >= min_capacity "
                f"{min_capacity}"
            )
        self._base = base
        self._min = float(min_capacity)
        self._max = None if max_capacity is None else float(max_capacity)

    @property
    def num_helpers(self) -> int:
        """Helper count of the wrapped process."""
        return self._base.num_helpers

    def capacities(self) -> np.ndarray:
        """Base capacities clipped into ``[min_capacity, max_capacity]``."""
        caps = np.asarray(self._base.capacities(), dtype=float)
        return np.clip(caps, self._min, self._max)

    def minimum_capacities(self) -> np.ndarray:
        """The wrapped bound, clipped (monotone, so still a bound)."""
        base_min = np.asarray(self._base.minimum_capacities(), dtype=float)
        return np.clip(base_min, self._min, self._max)

    def advance(self) -> None:
        """Advance the wrapped process."""
        self._base.advance()


@dataclass(frozen=True)
class LinkParameters:
    """Compiled per-helper link parameters (what the spec layer applies).

    ``helper_regions`` / ``helper_class_names`` expose the placement and
    class assignment that produced the arrays (``None`` when the spec
    used neither), for tests and diagnostics.
    """

    latency_ms: np.ndarray
    jitter_ms: np.ndarray
    loss_rate: np.ndarray
    capacity_scale: np.ndarray
    rtt_reference_ms: float
    helper_regions: Optional[np.ndarray] = None
    helper_class_names: Optional[Tuple[str, ...]] = None


def compile_link_parameters(
    num_helpers: int,
    *,
    regions: Sequence[str] = (),
    latency_matrix: Optional[Sequence[Sequence[float]]] = None,
    helper_regions: Optional[Sequence[int]] = None,
    viewer_region: int = 0,
    helper_classes: Optional[Mapping[str, float]] = None,
    latency_ms: float = 0.0,
    jitter_ms: float = 0.0,
    loss_rate: float = 0.0,
    rtt_reference_ms: float = 50.0,
) -> LinkParameters:
    """Fold globals, region RTTs and class profiles into per-helper arrays.

    Latency and jitter add across layers (base + region RTT + class);
    loss composes as independent drop processes
    (``1 - prod(1 - loss_i)``); capacity scale multiplies.  The result
    feeds :class:`LinkEffectProcess` unchanged.
    """
    from repro.network.classes import HELPER_CLASSES, assign_helper_classes
    from repro.network.regions import RegionTopology

    latency = np.full(num_helpers, float(latency_ms))
    jitter = np.full(num_helpers, float(jitter_ms))
    loss = np.full(num_helpers, float(loss_rate))
    scale = np.ones(num_helpers)
    region_assignment = None
    if regions:
        topology = RegionTopology.from_spec(regions, latency_matrix)
        region_assignment = topology.assign_helpers(
            num_helpers, explicit=helper_regions
        )
        latency = latency + topology.helper_rtts(region_assignment, viewer_region)
    class_names = None
    if helper_classes:
        names, _, assignment = assign_helper_classes(num_helpers, helper_classes)
        profiles = [HELPER_CLASSES.get(name) for name in names]
        latency = latency + np.array(
            [p.latency_ms for p in profiles]
        )[assignment]
        jitter = jitter + np.array([p.jitter_ms for p in profiles])[assignment]
        loss = 1.0 - (1.0 - loss) * (
            1.0 - np.array([p.loss_rate for p in profiles])[assignment]
        )
        scale = scale * np.array(
            [p.capacity_scale for p in profiles]
        )[assignment]
        class_names = tuple(names[i] for i in assignment)
    return LinkParameters(
        latency_ms=latency,
        jitter_ms=jitter,
        loss_rate=loss,
        capacity_scale=scale,
        rtt_reference_ms=float(rtt_reference_ms),
        helper_regions=region_assignment,
        helper_class_names=class_names,
    )
