"""The multi-channel P2P streaming system (paper Secs. I and IV).

Wires the substrate together: a :class:`~repro.sim.engine.Simulator` drives
periodic learning rounds; helper bandwidth follows the Markov capacity
process; peers run plug-in learners (RTHS/R2HS/baselines); a tracker hands
joining peers their channel's helper list; churn (optional) adds and
removes peers; the origin server tops up any peer whose helper share falls
short of its demand.  Each round:

1. every online peer draws a helper from its learner;
2. helper capacities split evenly among their connected peers — peer ``i``
   receives the share ``C_j / n_j`` (its game utility);
3. the server serves every peer's deficit ``max(0, d_i - share_i)``;
4. learners observe their share; metrics are recorded.

The per-round aggregates (welfare, server load, minimum bandwidth deficit,
helper loads) are exactly the series plotted in Figs. 3–5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.game.interfaces import Learner
from repro.sim.bandwidth import (
    PAPER_BANDWIDTH_LEVELS,
    MarkovCapacityProcess,
    paper_bandwidth_process,
)
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.entities import Channel, Helper, Peer, StreamingServer
from repro.sim.trace import SystemTrace
from repro.sim.tracker import Tracker
from repro.util.rng import Seedish, as_generator, spawn

LearnerFactory = Callable[[int, np.random.Generator], Learner]


def drive_rounds(
    sim: Simulator,
    period: float,
    execute: Callable[[Simulator], None],
    completed_rounds: Callable[[], int],
    num_rounds: int,
) -> None:
    """Fire ``execute`` for ``num_rounds`` periodic learning rounds.

    Rounds land at fixed absolute times; other events (churn, switches)
    interleave naturally.  Shared by the scalar and vectorized systems so
    the two backends cannot drift in round scheduling semantics.
    """
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    target = completed_rounds() + num_rounds
    start = sim.now
    offset = 1
    while completed_rounds() < target:
        sim.schedule_at(start + offset * period, execute)
        sim.run_until(start + offset * period)
        offset += 1


def install_channel_switching(
    sim: Simulator,
    config: "SystemConfig",
    switch_rng: np.random.Generator,
    churn: ChurnProcess,
    switch_once: Callable[[], Optional[int]],
) -> None:
    """Install the Poisson viewer channel-switch process.

    ``switch_once`` performs one backend-specific switch (pick a random
    online viewer, retire it, create a replacement) and returns the new
    peer's churn handle, or ``None`` when nobody is online.  The gap
    sampling, rescheduling and lifetime wiring here are shared by both
    backends.
    """
    _ChannelSwitching(config, switch_rng, churn, switch_once).schedule_next(sim)


class _ChannelSwitching:
    """State of the switch process; only its pending event refers to it.

    A self-rescheduling closure would refer to itself through its own
    cell, a cycle that keeps the churn process, and the system behind its
    callbacks, alive until the garbage collector runs.
    """

    def __init__(self, config, switch_rng, churn, switch_once) -> None:
        self._config = config
        self._rng = switch_rng
        self._churn = churn
        self._switch_once = switch_once

    def schedule_next(self, sim: Simulator) -> None:
        gap = float(self._rng.exponential(1.0 / self._config.channel_switch_rate))
        sim.schedule(gap, self._fire)

    def _fire(self, sim: Simulator) -> None:
        handle = self._switch_once()
        churn_config = self._config.churn
        if (
            handle is not None
            and churn_config.mean_lifetime
            and churn_config.initial_peer_lifetimes
        ):
            self._churn.schedule_lifetime(sim, handle)
        self.schedule_next(sim)


def install_popularity_drift(
    sim: Simulator,
    config: "SystemConfig",
    drift_rng: np.random.Generator,
    sampler: ChannelSampler,
) -> None:
    """Install the periodic popularity-drift process (diurnal skew).

    Every ``config.popularity_drift_period`` simulation-time units the
    backend's channel weights (held by its ``sampler``) are re-mixed with
    :func:`repro.workloads.popularity.popularity_drift` at rate
    ``config.popularity_drift_rate`` — so churn joins and viewer channel
    switches gradually shift toward a new popularity profile, the way
    real deployments' hot channels move through the day.  Only the
    *weights* drift; each peer keeps its channel until it leaves or
    switches.  Both the scheduling and the mixing live here, shared by
    both backends, so drift semantics cannot diverge.
    """

    def drift_once(_sim: Simulator) -> None:
        # Lazy import: the workloads layer may import the spec layer,
        # which reaches back into the systems.
        from repro.workloads.popularity import popularity_drift

        sampler.set_weights(
            popularity_drift(
                sampler.weights, config.popularity_drift_rate, rng=drift_rng
            )
        )

    sim.schedule_periodic(config.popularity_drift_period, drift_once)


def normalized_channel_weights(
    num_channels: int, popularity: Optional[Sequence[float]]
) -> np.ndarray:
    """Validate and normalize channel popularity weights.

    Shared by the scalar system and the vectorized runtime so both apply
    identical popularity semantics.
    """
    weights = popularity
    if weights is None:
        weights = [1.0] * num_channels
    weights = np.asarray(list(weights), dtype=float)
    if weights.size != num_channels or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(
            "channel_popularity must be one non-negative weight per channel "
            "with a positive sum"
        )
    return weights / weights.sum()


class ChannelSampler:
    """Popularity-weighted channel draws from a cached CDF.

    :meth:`draw` runs the inverse-CDF algorithm numpy's weighted
    ``Generator.choice`` runs: one ``rng.random`` double per draw,
    searched in the normalized cumulative weights.  It returns the same
    channels and leaves the generator in the same state, but builds the
    CDF once per weight vector instead of validating and re-summing the
    weights on every join and switch.  Both systems draw their initial
    population, churn joins and viewer switches through it.
    """

    def __init__(self, weights: np.ndarray) -> None:
        self.set_weights(weights)

    @property
    def weights(self) -> np.ndarray:
        """The current (normalized) channel weights."""
        return self._weights

    def set_weights(self, weights: np.ndarray) -> None:
        """Replace the weights (popularity drift) and rebuild the CDF."""
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._weights = weights
        self._cdf = cdf

    def draw(self, rng: np.random.Generator, size: Optional[int] = None):
        """One channel id (``size=None``) or an array of ``size`` ids."""
        return self._cdf.searchsorted(rng.random(size), side="right")


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of a streaming-system experiment.

    Attributes
    ----------
    num_peers:
        Initial population size.
    num_helpers:
        Total helpers across all channels (partitioned round-robin).
    num_channels:
        Number of live channels; helpers and peers are spread across them.
    channel_bitrates:
        Per-channel playback bitrate (kbit/s) = per-peer demand.  A single
        float applies to every channel.
    channel_popularity:
        Relative weights used to assign (initial and churning) peers to
        channels; defaults to uniform.
    bandwidth_levels, stay_probability:
        Helper-capacity Markov chain parameters (paper: ``[700, 800, 900]``
        with slow switching).
    round_duration:
        Simulated time between learning rounds.
    server_capacity:
        Origin server upload budget per round (default unbounded).
    churn:
        Join/leave configuration (disabled by default).
    channel_switch_rate:
        Poisson rate of viewer channel switches (time-varying channel
        popularity, paper Sec. I): each event, a random online peer stops
        watching its channel and re-joins one drawn from the popularity
        weights with a fresh learner (its helper history is channel-local
        and does not transfer).  0 disables switching.
    record_peers:
        Record dense per-peer actions/utilities (fixed populations only),
        enabling :meth:`~repro.sim.trace.SystemTrace.to_trajectory`.
    """

    num_peers: int
    num_helpers: int
    num_channels: int = 1
    channel_bitrates: Sequence[float] | float = 350.0
    channel_popularity: Optional[Sequence[float]] = None
    bandwidth_levels: Sequence[float] = PAPER_BANDWIDTH_LEVELS
    stay_probability: float = 0.9
    round_duration: float = 1.0
    server_capacity: float = float("inf")
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    channel_switch_rate: float = 0.0
    record_peers: bool = False
    popularity_drift_rate: float = 0.0
    popularity_drift_period: float = 10.0

    def __post_init__(self) -> None:
        if self.channel_switch_rate < 0:
            raise ValueError("channel_switch_rate must be >= 0")
        if not 0 <= self.popularity_drift_rate <= 1:
            raise ValueError("popularity_drift_rate must lie in [0, 1]")
        if self.popularity_drift_period <= 0:
            raise ValueError("popularity_drift_period must be positive")
        if self.num_peers < 1:
            raise ValueError("num_peers must be >= 1")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if self.num_helpers < self.num_channels:
            raise ValueError("need at least one helper per channel")
        if self.round_duration <= 0:
            raise ValueError("round_duration must be positive")
        if self.server_capacity <= 0:
            raise ValueError("server_capacity must be positive")
        # Normalize channel_bitrates to one float per channel so that a
        # misconfigured sequence fails here, at construction, and
        # ``bitrate_of`` is a plain tuple lookup.
        rates = self.channel_bitrates
        if isinstance(rates, (int, float)):
            normalized = (float(rates),) * self.num_channels
        else:
            normalized = tuple(float(r) for r in rates)
            if len(normalized) != self.num_channels:
                raise ValueError(
                    "channel_bitrates must have one entry per channel"
                )
        if any(r <= 0 for r in normalized):
            raise ValueError("channel bitrates must be positive")
        object.__setattr__(self, "channel_bitrates", normalized)

    def bitrate_of(self, channel_id: int) -> float:
        """Playback bitrate of ``channel_id``."""
        return self.channel_bitrates[channel_id]


class StreamingSystem:
    """A runnable multi-channel P2P streaming deployment."""

    def __init__(
        self,
        config: SystemConfig,
        learner_factory: LearnerFactory,
        rng: Seedish = None,
        capacity_process: Optional[MarkovCapacityProcess] = None,
        initial_channels: Optional[Sequence[int]] = None,
        capacity_backend: str = "scalar",
    ) -> None:
        self._config = config
        self._factory = learner_factory
        self._rng = as_generator(rng)
        self._sim = Simulator()
        self._server = StreamingServer(capacity=config.server_capacity)
        self._tracker = Tracker()
        self._trace = SystemTrace(
            actions=[] if config.record_peers else None,
            utilities=[] if config.record_peers else None,
        )
        self._round_index = 0
        self._population_changed = False

        if capacity_process is None:
            capacity_process = paper_bandwidth_process(
                config.num_helpers,
                levels=config.bandwidth_levels,
                stay_probability=config.stay_probability,
                rng=spawn(self._rng),
                backend=capacity_backend,
            )
        if capacity_process.num_helpers != config.num_helpers:
            raise ValueError("capacity process size does not match num_helpers")
        self._capacity_process = capacity_process

        # Channels and their popularity weights.
        self._sampler = ChannelSampler(
            normalized_channel_weights(
                config.num_channels, config.channel_popularity
            )
        )
        self._channels = [
            Channel(
                channel_id=c,
                bitrate=config.bitrate_of(c),
                popularity=float(self._sampler.weights[c]),
            )
            for c in range(config.num_channels)
        ]

        # Helpers, partitioned round-robin over channels.
        self._helpers: List[Helper] = []
        for h in range(config.num_helpers):
            channel_id = h % config.num_channels
            helper = Helper(helper_id=h, channel_id=channel_id)
            self._helpers.append(helper)
            self._tracker.register_helper(h, channel_id)

        # Initial peer population.  An explicit channel assignment makes
        # paired scalar-vs-vectorized runs start from identical populations.
        self._peers: List[Peer] = []
        if initial_channels is not None:
            if len(initial_channels) != config.num_peers:
                raise ValueError(
                    "initial_channels must list one channel per initial peer"
                )
            for channel_id in initial_channels:
                channel_id = int(channel_id)
                if not 0 <= channel_id < config.num_channels:
                    raise ValueError(f"channel {channel_id} out of range")
                self._create_peer(channel_id)
        else:
            for _ in range(config.num_peers):
                self._create_peer()

        # Churn.
        churn = ChurnProcess(
            config.churn,
            on_join=self._churn_join,
            on_leave=self._churn_leave,
            rng=spawn(self._rng),
        )
        if config.churn.initial_peer_lifetimes and config.churn.mean_lifetime:
            for peer in self._peers:
                churn.schedule_lifetime(self._sim, peer.peer_id)
        churn.start(self._sim)

        # Viewer channel switching (time-varying popularity).
        self._switch_rng = spawn(self._rng)
        self._channel_switches = 0
        if config.channel_switch_rate > 0:
            install_channel_switching(
                self._sim, config, self._switch_rng, churn,
                self._switch_once,
            )

        # Diurnal popularity drift (only spawns its generator when on, so
        # drift-free configs keep their RNG streams bit-identical).
        if config.popularity_drift_rate > 0:
            install_popularity_drift(self._sim, config, spawn(self._rng), self._sampler)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @property
    def channel_weights(self) -> np.ndarray:
        """Current channel popularity weights (drift updates them)."""
        return self._sampler.weights.copy()

    def _create_peer(self, channel_id: Optional[int] = None) -> Peer:
        if channel_id is None:
            channel_id = int(self._sampler.draw(self._rng))
        helpers = self._tracker.helpers_for(channel_id)
        learner = self._factory(len(helpers), spawn(self._rng))
        if learner.num_actions != len(helpers):
            raise ValueError(
                f"learner_factory produced {learner.num_actions} actions for "
                f"a channel with {len(helpers)} helpers"
            )
        peer = Peer(
            peer_id=len(self._peers),
            channel_id=channel_id,
            demand=self._channels[channel_id].bitrate,
            learner=learner,
            joined_at=self._sim.now,
        )
        self._peers.append(peer)
        return peer

    def _churn_join(self) -> int:
        peer = self._create_peer()
        self._population_changed = True
        return peer.peer_id

    def _switch_once(self) -> Optional[int]:
        """One viewer channel switch; returns the replacement's peer id."""
        online = self.online_peers()
        if not online:
            return None
        peer = online[int(self._switch_rng.integers(len(online)))]
        self._churn_leave(peer.peer_id)
        replacement = self._create_peer()
        self._channel_switches += 1
        self._population_changed = True
        return replacement.peer_id

    @property
    def channel_switches(self) -> int:
        """Viewer channel-switch events processed so far."""
        return self._channel_switches

    def _churn_leave(self, peer_id: int) -> None:
        peer = self._peers[peer_id]
        if not peer.online:
            return
        peer.online = False
        peer.left_at = self._sim.now
        self._population_changed = True
        if peer.current_helper is not None:
            helpers = self._tracker.helpers_for(peer.channel_id)
            self._helpers[helpers[peer.current_helper]].detach(peer_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        """The experiment configuration."""
        return self._config

    @property
    def simulator(self) -> Simulator:
        """The underlying event engine."""
        return self._sim

    @property
    def peers(self) -> List[Peer]:
        """All peers ever created (online and departed)."""
        return self._peers

    @property
    def helpers(self) -> List[Helper]:
        """All helpers."""
        return self._helpers

    @property
    def channels(self) -> List[Channel]:
        """All channels."""
        return self._channels

    @property
    def server(self) -> StreamingServer:
        """The origin server."""
        return self._server

    @property
    def trace(self) -> SystemTrace:
        """The recorded per-round history."""
        return self._trace

    def online_peers(self) -> List[Peer]:
        """Peers currently participating."""
        return [p for p in self._peers if p.online]

    # ------------------------------------------------------------------
    # The learning round
    # ------------------------------------------------------------------

    def _execute_round(self, _: Simulator) -> None:
        config = self._config
        caps = self._capacity_process.capacities()
        online = self.online_peers()

        # 1. Everyone picks a helper (local index within their channel).
        choices: Dict[int, int] = {}
        for helper in self._helpers:
            helper.connected.clear()
        for peer in online:
            local = peer.learner.act()
            choices[peer.peer_id] = local
            helper_id = self._tracker.helpers_for(peer.channel_id)[local]
            self._helpers[helper_id].attach(peer.peer_id)
            peer.current_helper = local

        loads = np.array([h.load for h in self._helpers], dtype=int)

        # 2./3. Shares realize; the server covers deficits.
        total_share = 0.0
        total_deficit_requested = 0.0
        shares: Dict[int, float] = {}
        for peer in online:
            helper_id = self._tracker.helpers_for(peer.channel_id)[
                choices[peer.peer_id]
            ]
            share = caps[helper_id] / loads[helper_id]
            shares[peer.peer_id] = share
            total_share += share
            total_deficit_requested += max(0.0, peer.demand - share)
        granted = self._server.serve(total_deficit_requested)

        # 4. Learners observe their raw helper share (the game utility).
        for peer in online:
            share = shares[peer.peer_id]
            peer.learner.observe(choices[peer.peer_id], share)
            peer.rounds_participated += 1
            peer.cumulative_rate += share
            peer.cumulative_deficit += max(0.0, peer.demand - share)

        total_demand = float(sum(p.demand for p in online))
        min_caps = self._capacity_process.minimum_capacities()
        min_deficit = max(0.0, total_demand - float(min_caps.sum()))
        self._trace.append_round(
            time=self._sim.now,
            capacities=caps,
            loads=loads,
            welfare=total_share,
            server_load=granted,
            min_deficit=min_deficit,
            online_peers=len(online),
            total_demand=total_demand,
        )

        if config.record_peers:
            if self._population_changed:
                raise RuntimeError(
                    "record_peers=True requires a fixed population; disable "
                    "churn or per-peer recording"
                )
            # Global helper ids so the trajectory indexes all H helpers.
            action_row = np.array(
                [
                    self._tracker.helpers_for(p.channel_id)[choices[p.peer_id]]
                    for p in online
                ],
                dtype=int,
            )
            util_row = np.array([shares[p.peer_id] for p in online])
            self._trace.actions.append(action_row)  # type: ignore[union-attr]
            self._trace.utilities.append(util_row)  # type: ignore[union-attr]

        self._capacity_process.advance()
        self._round_index += 1

    def run(self, num_rounds: int) -> SystemTrace:
        """Advance the system by ``num_rounds`` learning rounds.

        May be called repeatedly; the trace accumulates.
        """
        drive_rounds(
            self._sim,
            self._config.round_duration,
            self._execute_round,
            lambda: self._round_index,
            num_rounds,
        )
        return self._trace

    def close(self) -> None:
        """End the run: drop the pending events.

        Churn, switching and round events call back into this system, so
        while they are queued the system sits in a reference cycle and
        outlives its last user until the garbage collector runs.  The
        trace stays readable; the system cannot run on.
        """
        self._sim.clear()
