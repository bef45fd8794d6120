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

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.game.interfaces import Learner
from repro.sim.bandwidth import MarkovCapacityProcess
from repro.sim.churn import ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.entities import Channel, Helper, Peer, StreamingServer
from repro.sim.trace import SystemTrace
from repro.sim.tracker import Tracker
from repro.util.rng import Seedish, as_generator, spawn
from repro.util.validation import normalized_channel_weights

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.spec.model import ExperimentSpec

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
    spec: ExperimentSpec,
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
    _ChannelSwitching(spec, switch_rng, churn, switch_once).schedule_next(sim)


class _ChannelSwitching:
    """State of the switch process; only its pending event refers to it.

    A self-rescheduling closure would refer to itself through its own
    cell, a cycle that keeps the churn process, and the system behind its
    callbacks, alive until the garbage collector runs.
    """

    def __init__(self, spec, switch_rng, churn, switch_once) -> None:
        self._rate = spec.topology.channel_switch_rate
        self._churn_spec = spec.churn
        self._rng = switch_rng
        self._churn = churn
        self._switch_once = switch_once

    def schedule_next(self, sim: Simulator) -> None:
        gap = float(self._rng.exponential(1.0 / self._rate))
        sim.schedule(gap, self._fire)

    def _fire(self, sim: Simulator) -> None:
        handle = self._switch_once()
        churn_spec = self._churn_spec
        if (
            handle is not None
            and churn_spec.mean_lifetime
            and churn_spec.initial_peer_lifetimes
        ):
            self._churn.schedule_lifetime(sim, handle)
        self.schedule_next(sim)


def install_popularity_drift(
    sim: Simulator,
    spec: ExperimentSpec,
    drift_rng: np.random.Generator,
    sampler: ChannelSampler,
) -> None:
    """Install the periodic popularity-drift process (diurnal skew).

    Every ``topology.popularity_drift_period`` simulation-time units the
    backend's channel weights (held by its ``sampler``) are re-mixed with
    :func:`repro.workloads.popularity.popularity_drift` at rate
    ``topology.popularity_drift_rate`` — so churn joins and viewer channel
    switches gradually shift toward a new popularity profile, the way
    real deployments' hot channels move through the day.  Only the
    *weights* drift; each peer keeps its channel until it leaves or
    switches.  Both the scheduling and the mixing live here, shared by
    both backends, so drift semantics cannot diverge.
    """

    topology = spec.topology

    def drift_once(_sim: Simulator) -> None:
        # Lazy import: the workloads layer may import the spec layer,
        # which reaches back into the systems.
        from repro.workloads.popularity import popularity_drift

        sampler.set_weights(
            popularity_drift(
                sampler.weights, topology.popularity_drift_rate, rng=drift_rng
            )
        )

    sim.schedule_periodic(topology.popularity_drift_period, drift_once)


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


class StreamingSystem:
    """A runnable multi-channel P2P streaming deployment.

    Parameters
    ----------
    spec:
        The :class:`~repro.spec.ExperimentSpec` the system runs: its
        ``topology`` (peers, helpers partitioned round-robin over the
        channels, per-channel bitrates as per-peer demand, popularity,
        round duration, viewer switching and popularity drift),
        ``capacity.server_capacity`` (``None``: unbounded), ``churn``
        and ``metrics.record_peers``.  A viewer switch retires a random
        online peer and creates one on a channel drawn from the
        popularity weights, with a fresh learner.
    learner_factory:
        Builds one peer's learner: ``factory(num_actions, rng)``.
    rng:
        Seed or generator; children are spawned in construction order.
    capacity_process:
        The helper-bandwidth environment.  Omitted, the system builds
        ``spec.build_capacity_process`` from the first child of ``rng``,
        transforms and ``network`` section included; pass a recorded
        trace for paired runs.
    initial_channels:
        Optional explicit channel per initial peer (for paired
        scalar-vs-vectorized runs); defaults to popularity-weighted draws.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        learner_factory: LearnerFactory,
        rng: Seedish = None,
        capacity_process: Optional[MarkovCapacityProcess] = None,
        initial_channels: Optional[Sequence[int]] = None,
    ) -> None:
        topology = spec.topology
        self._spec = spec
        self._factory = learner_factory
        self._rng = as_generator(rng)
        self._sim = Simulator()
        server_capacity = spec.capacity.server_capacity
        self._server = StreamingServer(
            capacity=float("inf") if server_capacity is None else server_capacity
        )
        self._tracker = Tracker()
        record_peers = spec.metrics.record_peers
        self._trace = SystemTrace(
            actions=[] if record_peers else None,
            utilities=[] if record_peers else None,
        )
        self._round_index = 0
        self._population_changed = False

        if capacity_process is None:
            capacity_process = spec.build_capacity_process(rng=spawn(self._rng))
        if capacity_process.num_helpers != topology.num_helpers:
            raise ValueError("capacity process size does not match num_helpers")
        self._capacity_process = capacity_process

        # Channels and their popularity weights.
        self._sampler = ChannelSampler(
            normalized_channel_weights(
                topology.num_channels, topology.channel_popularity
            )
        )
        self._channels = [
            Channel(
                channel_id=c,
                bitrate=bitrate,
                popularity=float(self._sampler.weights[c]),
            )
            for c, bitrate in enumerate(topology.bitrates())
        ]

        # Helpers, partitioned round-robin over channels.
        self._helpers: List[Helper] = []
        for h in range(topology.num_helpers):
            channel_id = h % topology.num_channels
            helper = Helper(helper_id=h, channel_id=channel_id)
            self._helpers.append(helper)
            self._tracker.register_helper(h, channel_id)

        # Initial peer population.  An explicit channel assignment makes
        # paired scalar-vs-vectorized runs start from identical populations.
        self._peers: List[Peer] = []
        if initial_channels is not None:
            if len(initial_channels) != topology.num_peers:
                raise ValueError(
                    "initial_channels must list one channel per initial peer"
                )
            for channel_id in initial_channels:
                channel_id = int(channel_id)
                if not 0 <= channel_id < topology.num_channels:
                    raise ValueError(f"channel {channel_id} out of range")
                self._create_peer(channel_id)
        else:
            for _ in range(topology.num_peers):
                self._create_peer()

        # Churn.
        churn = ChurnProcess(
            spec.churn,
            on_join=self._churn_join,
            on_leave=self._churn_leave,
            rng=spawn(self._rng),
        )
        if spec.churn.initial_peer_lifetimes and spec.churn.mean_lifetime:
            for peer in self._peers:
                churn.schedule_lifetime(self._sim, peer.peer_id)
        churn.start(self._sim)

        # Viewer channel switching (time-varying popularity).
        self._switch_rng = spawn(self._rng)
        self._channel_switches = 0
        if topology.channel_switch_rate > 0:
            install_channel_switching(
                self._sim, spec, self._switch_rng, churn,
                self._switch_once,
            )

        # Diurnal popularity drift (only spawns its generator when on, so
        # drift-free specs keep their RNG streams bit-identical).
        if topology.popularity_drift_rate > 0:
            install_popularity_drift(self._sim, spec, spawn(self._rng), self._sampler)

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

        if self._spec.metrics.record_peers:
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
            self._spec.topology.round_duration,
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
