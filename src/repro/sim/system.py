"""The multi-channel P2P streaming system (paper Secs. I and IV).

Wires the substrate together: a :class:`~repro.sim.engine.Simulator` drives
periodic learning rounds; helper bandwidth follows the Markov capacity
process; peers run plug-in learners (RTHS/R2HS/baselines); each channel's
viewers pick among the helpers of a static partition (the contact list a
tracker hands a joining peer); churn (optional) adds and removes peers;
the origin server tops up any peer whose helper share falls short of its
demand.  Each round:

1. every online peer draws a helper from its learner;
2. helper capacities split evenly among their connected peers — peer ``i``
   receives the share ``C_j / n_j`` (its game utility);
3. the server serves every peer's deficit ``max(0, d_i - share_i)``;
4. learners observe their share; metrics are recorded.

The per-round aggregates (welfare, server load, minimum bandwidth deficit,
helper loads) are exactly the series plotted in Figs. 3–5.

:class:`SystemSkeleton` builds everything but the peers and the round,
for both backends: server, trace, capacity process, channels, helper
partition, churn, viewer switching, popularity drift and the round
loop.  :class:`StreamingSystem` is the scalar backend on top of it, one
:class:`~repro.sim.entities.Peer` object and learner per viewer; the
vectorized backend is :class:`repro.runtime.system.VectorizedStreamingSystem`.
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
from repro.util.rng import Seedish, as_generator, spawn
from repro.util.validation import normalized_channel_weights

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.spec.model import ExperimentSpec

LearnerFactory = Callable[[int, np.random.Generator], Learner]


class _ChannelSwitching:
    """The Poisson viewer channel-switch process.

    ``switch_once`` performs one backend-specific switch (pick a random
    online viewer, retire it, create a replacement) and returns the new
    peer's churn handle, or ``None`` when nobody is online.

    Only its pending event refers to this object: a self-rescheduling
    closure would refer to itself through its own cell, a cycle that
    keeps the churn process, and the system behind its callbacks, alive
    until the garbage collector runs.
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
    switches.
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


class SystemSkeleton:
    """What both streaming backends share: all but the peers and the round.

    The constructor reads the spec and builds, in this order, the server
    and the trace; the capacity process (from the first child of ``rng``
    when none is injected); the channels, their popularity sampler and
    the helper partition; the initial population (through the backend's
    :meth:`_populate`); the churn process with its initial lifetimes;
    viewer switching; and popularity drift (its child generator spawned
    only when drift is on).  Both backends' pinned RNG streams rest on
    that order.

    A backend provides:

    * ``_populate(initial_channels)``: build the peer representation and
      the initial population, spawning its generators from ``self._rng``
      (``initial_channels`` is ``None`` or one validated channel id per
      initial peer); return the initial peers' churn handles;
    * ``_churn_join() -> handle`` and ``_churn_leave(handle)``: the churn
      callbacks;
    * ``_switch_once() -> Optional[handle]``: one viewer channel switch;
    * ``_execute_round(sim)``: one learning round, which appends one
      trace record, advances the capacity process and increments
      ``self._round_index``.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        rng: Seedish,
        capacity_process: Optional[MarkovCapacityProcess],
        initial_channels: Optional[Sequence[int]],
    ) -> None:
        topology = spec.topology
        self._spec = spec
        self._rng = as_generator(rng)
        self._sim = Simulator()
        server_capacity = spec.capacity.server_capacity
        self._server = StreamingServer(
            capacity=float("inf") if server_capacity is None else server_capacity
        )
        record_peers = spec.metrics.record_peers
        self._trace = SystemTrace(
            actions=[] if record_peers else None,
            utilities=[] if record_peers else None,
        )
        self._round_index = 0
        self._population_changed = False
        self._channel_switches = 0

        if capacity_process is None:
            capacity_process = spec.build_capacity_process(rng=spawn(self._rng))
        if capacity_process.num_helpers != topology.num_helpers:
            raise ValueError("capacity process size does not match num_helpers")
        self._capacity_process = capacity_process
        # minimum_capacities() is a per-helper *lower bound over time* —
        # constant for every process implementation (chain level sets and
        # recorded traces are fixed at construction) — so its sum, the
        # Fig. 5 bound the rounds need, is computed once.
        self._min_caps_sum = float(
            np.asarray(capacity_process.minimum_capacities()).sum()
        )

        self._sampler = ChannelSampler(
            normalized_channel_weights(
                topology.num_channels, topology.channel_popularity
            )
        )
        self._channels = [
            Channel(channel_id=c, bitrate=bitrate)
            for c, bitrate in enumerate(topology.bitrates())
        ]
        self._channel_helpers = topology.channel_helpers()

        # An explicit channel assignment makes paired scalar-vs-vectorized
        # runs start from identical populations.
        if initial_channels is not None:
            initial_channels = np.asarray(list(initial_channels), dtype=np.int64)
            if initial_channels.shape != (topology.num_peers,) or not (
                0 <= initial_channels.min()
                and initial_channels.max() < topology.num_channels
            ):
                raise ValueError(
                    "initial_channels must list one channel id in "
                    f"[0, {topology.num_channels}) for each of the "
                    f"{topology.num_peers} initial peers"
                )
        handles = self._populate(initial_channels)

        churn = ChurnProcess(
            spec.churn,
            on_join=self._churn_join,
            on_leave=self._churn_leave,
            rng=spawn(self._rng),
        )
        if spec.churn.initial_peer_lifetimes and spec.churn.mean_lifetime:
            for handle in handles:
                churn.schedule_lifetime(self._sim, handle)
        churn.start(self._sim)

        # Viewer channel switching (time-varying popularity).
        self._switch_rng = spawn(self._rng)
        if topology.channel_switch_rate > 0:
            _ChannelSwitching(
                spec, self._switch_rng, churn, self._switch_once
            ).schedule_next(self._sim)

        # Diurnal popularity drift.  Its generator is spawned only when
        # drift is on, so drift-free specs keep their RNG streams.
        if topology.popularity_drift_rate > 0:
            install_popularity_drift(self._sim, spec, spawn(self._rng), self._sampler)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        """The underlying event engine."""
        return self._sim

    @property
    def channels(self) -> List[Channel]:
        """All channels."""
        return self._channels

    @property
    def channel_weights(self) -> np.ndarray:
        """Current channel popularity weights (drift updates them)."""
        return self._sampler.weights.copy()

    @property
    def channel_switches(self) -> int:
        """Viewer channel-switch events processed so far."""
        return self._channel_switches

    @property
    def server(self) -> StreamingServer:
        """The origin server."""
        return self._server

    @property
    def trace(self) -> SystemTrace:
        """The recorded per-round history."""
        return self._trace

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def _record_peer_rows(self, actions: np.ndarray, utilities: np.ndarray) -> None:
        """Append one round's per-peer helper ids and shares to the trace."""
        if self._population_changed:
            raise RuntimeError(
                "record_peers=True requires a fixed population; disable "
                "churn or per-peer recording"
            )
        self._trace.actions.append(actions)  # type: ignore[union-attr]
        self._trace.utilities.append(utilities)  # type: ignore[union-attr]

    def run(self, num_rounds: int) -> SystemTrace:
        """Advance the system by ``num_rounds`` learning rounds.

        Rounds land at fixed absolute times, one ``round_duration``
        apart; churn, switch and drift events interleave between them.
        May be called repeatedly; the trace accumulates.
        """
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        target = self._round_index + num_rounds
        period = self._spec.topology.round_duration
        start = self._sim.now
        offset = 1
        while self._round_index < target:
            self._sim.schedule_at(start + offset * period, self._execute_round)
            self._sim.run_until(start + offset * period)
            offset += 1
        return self._trace

    def close(self) -> None:
        """End the run: drop the pending events.

        Churn, switching and round events call back into this system, so
        while they are queued the system sits in a reference cycle and
        outlives its last user until the garbage collector runs.  The
        trace stays readable; the system cannot run on.
        """
        self._sim.clear()


class StreamingSystem(SystemSkeleton):
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
        self._factory = learner_factory
        super().__init__(spec, rng, capacity_process, initial_channels)

    # ------------------------------------------------------------------
    # Population and churn callbacks
    # ------------------------------------------------------------------

    def _populate(self, initial_channels: Optional[np.ndarray]) -> List[int]:
        channel_of = {
            h: c for c, helpers in enumerate(self._channel_helpers) for h in helpers
        }
        self._helpers = [
            Helper(helper_id=h, channel_id=c) for h, c in sorted(channel_of.items())
        ]
        self._peers: List[Peer] = []
        # The online peers by id, in creation order (the scalar round's
        # summation order): _create_peer adds, _churn_leave removes.
        self._online: Dict[int, Peer] = {}
        if initial_channels is None:
            for _ in range(self._spec.topology.num_peers):
                self._create_peer()
        else:
            for channel_id in initial_channels:
                self._create_peer(int(channel_id))
        return [peer.peer_id for peer in self._peers]

    def _create_peer(self, channel_id: Optional[int] = None) -> Peer:
        if channel_id is None:
            channel_id = int(self._sampler.draw(self._rng))
        num_helpers = len(self._channel_helpers[channel_id])
        learner = self._factory(num_helpers, spawn(self._rng))
        if learner.num_actions != num_helpers:
            raise ValueError(
                f"learner_factory produced {learner.num_actions} actions for "
                f"a channel with {num_helpers} helpers"
            )
        peer = Peer(
            peer_id=len(self._peers),
            channel_id=channel_id,
            demand=self._channels[channel_id].bitrate,
            learner=learner,
            joined_at=self._sim.now,
        )
        self._peers.append(peer)
        self._online[peer.peer_id] = peer
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

    def _churn_leave(self, peer_id: int) -> None:
        peer = self._peers[peer_id]
        if not peer.online:
            return
        peer.online = False
        del self._online[peer_id]
        peer.left_at = self._sim.now
        self._population_changed = True
        if peer.current_helper is not None:
            helper_id = self._channel_helpers[peer.channel_id][peer.current_helper]
            self._helpers[helper_id].detach(peer_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def peers(self) -> List[Peer]:
        """All peers ever created (online and departed)."""
        return self._peers

    @property
    def helpers(self) -> List[Helper]:
        """All helpers."""
        return self._helpers

    def online_peers(self) -> List[Peer]:
        """Peers currently participating, in creation order."""
        return list(self._online.values())

    # ------------------------------------------------------------------
    # The learning round
    # ------------------------------------------------------------------

    def _execute_round(self, _: Simulator) -> None:
        caps = self._capacity_process.capacities()
        online = self.online_peers()
        channel_helpers = self._channel_helpers

        # 1. Everyone picks a helper (local index within their channel).
        choices: Dict[int, int] = {}
        for helper in self._helpers:
            helper.connected.clear()
        for peer in online:
            local = peer.learner.act()
            choices[peer.peer_id] = local
            helper_id = channel_helpers[peer.channel_id][local]
            self._helpers[helper_id].attach(peer.peer_id)
            peer.current_helper = local

        loads = np.array([h.load for h in self._helpers], dtype=int)

        # 2./3. Shares realize; the server covers deficits.
        total_share = 0.0
        total_deficit_requested = 0.0
        shares: Dict[int, float] = {}
        for peer in online:
            helper_id = channel_helpers[peer.channel_id][choices[peer.peer_id]]
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
        self._trace.append_round(
            time=self._sim.now,
            capacities=caps,
            loads=loads,
            welfare=total_share,
            server_load=granted,
            min_deficit=max(0.0, total_demand - self._min_caps_sum),
            online_peers=len(online),
            total_demand=total_demand,
        )

        if self._spec.metrics.record_peers:
            # Global helper ids so the trajectory indexes all H helpers.
            self._record_peer_rows(
                np.array(
                    [channel_helpers[p.channel_id][choices[p.peer_id]] for p in online],
                    dtype=int,
                ),
                np.array([shares[p.peer_id] for p in online]),
            )

        self._capacity_process.advance()
        self._round_index += 1
