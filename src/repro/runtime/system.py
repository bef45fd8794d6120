"""The vectorized streaming runtime.

:class:`VectorizedStreamingSystem` is a drop-in, array-backed
implementation of the full multi-channel streaming system of
:class:`repro.sim.system.StreamingSystem`: same
:class:`~repro.sim.system.SystemConfig`, same discrete-event engine
driving rounds and churn, same origin-server semantics, and the same
:class:`~repro.sim.trace.SystemTrace` / RoundRecord schema — so every
existing metric, analysis and reporting path works unchanged.  Only the
*representation* differs: peers live in a :class:`~repro.runtime.peer_store.PeerStore`
(struct-of-arrays with a free-list) and strategies in one
:class:`~repro.runtime.grouped_bank.GroupedLearnerBank` owning every
channel's rows, so a learning round is a handful of numpy operations —
one fused ``act_all``, ``np.bincount`` for helper loads, masked
arithmetic for shares and deficits, one fused ``observe_all`` — instead
of a Python loop over peers or ``2 * C`` per-channel bank calls.

The bank factory has one contract, ``factory(arm_counts, rngs) ->
GroupedLearnerBank``: the regret families build the fused
:class:`~repro.runtime.grouped_bank.GroupedRegretBank` (one kernel pass
per distinct channel width), the stateless baselines a
:class:`~repro.runtime.grouped_bank.PerChannelGroupedBank` looping their
per-channel banks.  The fused regret bank is **bit-identical** to
per-channel regret banks behind the same API: same per-channel RNG
streams, same per-row float sequences, same traces (asserted
trace-for-trace in ``tests/runtime/test_grouped_engine.py``).

Given identical helper choices the scalar and vectorized systems produce
identical round records (asserted trace-for-trace in
``tests/runtime/test_equivalence.py`` by scripting the choices); with
learners on, agreement is distributional (same dynamics, different RNG
stream layout).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.runtime.grouped_bank import GroupedLearnerBank
from repro.runtime.learner_bank import BankFactory
from repro.runtime.peer_store import PeerStore
from repro.sim.bandwidth import paper_bandwidth_process
from repro.sim.churn import ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.entities import Channel, StreamingServer
from repro.sim.system import (
    SystemConfig,
    drive_rounds,
    install_channel_switching,
    install_popularity_drift,
    normalized_channel_weights,
)
from repro.sim.trace import SystemTrace
from repro.sim.tracker import Tracker
from repro.telemetry import get_telemetry
from repro.util.logconfig import get_logger
from repro.util.rng import Seedish, as_generator, spawn

logger = get_logger("runtime")


class VectorizedStreamingSystem:
    """A runnable multi-channel P2P streaming deployment, array-backed.

    Parameters
    ----------
    config:
        The same :class:`~repro.sim.system.SystemConfig` the scalar system
        takes.
    bank_factory:
        Builds the one
        :class:`~repro.runtime.grouped_bank.GroupedLearnerBank` owning
        every channel's rows: called with ``(arm_counts, child_rngs)``,
        the per-channel helper counts and one child generator per
        channel (see :func:`repro.runtime.bank_factory`).  Wrap
        per-channel banks as ``PerChannelGroupedBank(
        build_per_channel_banks(per_channel, arm_counts, child_rngs))``.
    rng, capacity_process:
        As in the scalar system.
    initial_channels:
        Optional explicit channel per initial peer (for paired
        scalar-vs-vectorized runs); defaults to popularity-weighted draws.
    capacity_backend:
        Backend for the default environment when ``capacity_process`` is
        omitted: ``"vectorized"`` (default — one
        :class:`~repro.sim.bandwidth.VectorizedCapacityProcess` draw per
        round regardless of ``H``) or ``"scalar"`` (per-helper chains, the
        pre-engine behaviour).
    dtype:
        Float dtype of the per-peer accumulator columns
        (:class:`~repro.runtime.peer_store.PeerStore` ``demand`` /
        ``cumulative_rate`` / ``cumulative_deficit``).  ``numpy.float32``
        halves their memory traffic; pair it with a float32 bank via
        ``bank_factory(..., dtype=np.float32)`` for the full effect.
        Round records stay float64.
    """

    def __init__(
        self,
        config: SystemConfig,
        bank_factory: BankFactory,
        rng: Seedish = None,
        capacity_process=None,
        initial_channels: Optional[Sequence[int]] = None,
        capacity_backend: str = "vectorized",
        dtype=np.float64,
    ) -> None:
        self._config = config
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
        # Memoized round grouping (see _round_grouping): valid until the
        # population changes.
        self._grouping = None
        # Deferred per-peer accumulators, aligned with the grouping's
        # `online` array (see _flush_accumulators): churn-free stretches
        # pay three contiguous adds per round instead of three
        # fancy-index read-modify-writes over the store columns.
        self._acc_rounds = 0
        self._acc_rate: Optional[np.ndarray] = None
        self._acc_deficit: Optional[np.ndarray] = None

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
        # minimum_capacities() is a per-helper *lower bound over time* —
        # constant for every process implementation (chain level sets and
        # recorded traces are fixed at construction) — so its sum, the only
        # thing the round loop needs, is computed once.
        self._min_caps_sum = float(
            np.asarray(capacity_process.minimum_capacities()).sum()
        )

        # Channels, popularity, helper partition (identical to scalar).
        self._channel_weights = normalized_channel_weights(
            config.num_channels, config.channel_popularity
        )
        # Per-channel playback bitrates as a lookup table: demand vectors
        # for whole populations (and single join events) become one
        # gather instead of a Python loop over config.bitrate_of.
        self._bitrate_table = np.asarray(config.channel_bitrates, dtype=float)
        self._channels = [
            Channel(
                channel_id=c,
                bitrate=config.bitrate_of(c),
                popularity=float(self._channel_weights[c]),
            )
            for c in range(config.num_channels)
        ]
        for h in range(config.num_helpers):
            self._tracker.register_helper(h, h % config.num_channels)
        self._channel_helpers: List[np.ndarray] = [
            np.asarray(self._tracker.helpers_for(c), dtype=np.int64)
            for c in range(config.num_channels)
        ]
        # Channel-local action -> global helper id, one 2-D gather per
        # round (padding rows never indexed past the channel's width).
        widths = [int(helpers.size) for helpers in self._channel_helpers]
        self._helper_table = np.full(
            (config.num_channels, max(widths)), -1, dtype=np.int64
        )
        for c, helpers in enumerate(self._channel_helpers):
            self._helper_table[c, : helpers.size] = helpers

        # The learner bank: one object owning every channel's rows, built
        # from child generators spawned in channel order.
        bank_rngs = [spawn(self._rng) for _ in range(config.num_channels)]
        self._bank: GroupedLearnerBank = bank_factory(widths, bank_rngs)
        if self._bank.num_channels != config.num_channels:
            raise ValueError(
                f"bank hosts {self._bank.num_channels} channels, config "
                f"has {config.num_channels}"
            )
        for c, width in enumerate(widths):
            if self._bank.num_actions_of(c) != width:
                raise ValueError(
                    f"bank produced {self._bank.num_actions_of(c)} actions "
                    f"for channel {c} with {width} helpers"
                )

        # Initial population, bulk-allocated.
        self._store = PeerStore(
            initial_capacity=max(64, config.num_peers), dtype=dtype
        )
        self._uid_slot: dict[int, int] = {}
        if initial_channels is not None:
            if len(initial_channels) != config.num_peers:
                raise ValueError(
                    "initial_channels must list one channel per initial peer"
                )
            channels = np.asarray(list(initial_channels), dtype=np.int64)
            if channels.size and (
                channels.min() < 0 or channels.max() >= config.num_channels
            ):
                raise ValueError("initial channel out of range")
        else:
            channels = self._rng.choice(
                config.num_channels, size=config.num_peers, p=self._channel_weights
            ).astype(np.int64)
        demands = self._bitrate_table[channels]
        slots = self._store.allocate_many(channels, demands, now=self._sim.now)
        for c in range(config.num_channels):
            mask = channels == c
            count = int(mask.sum())
            if count == 0:
                continue
            self._store.bank_row[slots[mask]] = self._bank.acquire_many(c, count)
        for slot in slots:
            self._uid_slot[int(self._store.uid[slot])] = int(slot)

        # Churn (same process and semantics as the scalar system; peer ids
        # handed to the churn process are uids, which are never reused, so
        # a stale leave event can never hit a recycled slot).
        churn = ChurnProcess(
            config.churn,
            on_join=self._churn_join,
            on_leave=self._churn_leave,
            rng=spawn(self._rng),
        )
        if config.churn.initial_peer_lifetimes and config.churn.mean_lifetime:
            for slot in slots:
                churn.schedule_lifetime(
                    self._sim, int(self._store.uid[slot])
                )
        churn.start(self._sim)

        # Viewer channel switching (time-varying popularity).
        self._switch_rng = spawn(self._rng)
        self._channel_switches = 0
        if config.channel_switch_rate > 0:
            install_channel_switching(
                self._sim, config, self._switch_rng, churn,
                self._switch_once,
            )

        # Diurnal popularity drift (skew-shifting workloads): periodically
        # re-mixes the channel weights that churn joins and viewer
        # switches draw from.  The child generator is only spawned when
        # drift is on, so drift-free configs keep their RNG streams.
        if config.popularity_drift_rate > 0:
            install_popularity_drift(
                self._sim, config, spawn(self._rng),
                lambda: self._channel_weights, self._set_channel_weights,
            )

        # Telemetry instruments bind once, here: when the process-wide
        # registry is disabled every handle below is the shared null
        # object, so the round loop pays one attribute call per phase
        # and nothing else.  The `round.*` phases tile _execute_round;
        # `round.total` is the envelope the profiler computes coverage
        # against.
        tel = get_telemetry()
        self._ph_total = tel.phase("round.total")
        self._ph_capacity = tel.phase("round.capacity")
        self._ph_grouping = tel.phase("round.grouping")
        self._ph_act = tel.phase("round.act")
        self._ph_reduce = tel.phase("round.reduce")
        self._ph_observe = tel.phase("round.observe")
        self._ph_trace = tel.phase("round.trace")
        self._ph_churn = tel.phase("churn.apply")
        self._ctr_rounds = tel.counter("round.count")
        self._ctr_joins = tel.counter("churn.joins")
        self._ctr_leaves = tel.counter("churn.leaves")
        self._ctr_switches = tel.counter("churn.switches")
        self._gauge_online = tel.gauge("round.online_peers")
        self._hist_round_s = tel.histogram("round.duration_s")
        self._pump = tel.pump()
        logger.debug(
            "vectorized system up: N=%d H=%d C=%d bank=%s dtype=%s",
            config.num_peers, config.num_helpers, config.num_channels,
            type(self._bank).__name__, np.dtype(dtype).name,
        )

    # ------------------------------------------------------------------
    # Construction helpers / churn callbacks
    # ------------------------------------------------------------------

    def _create_peer(self, channel_id: Optional[int] = None) -> int:
        """Bring one peer online; returns its uid."""
        if channel_id is None:
            channel_id = int(
                self._rng.choice(self._config.num_channels, p=self._channel_weights)
            )
        row = self._bank.acquire(channel_id)
        slot, _ = self._store.allocate(
            channel_id,
            float(self._bitrate_table[channel_id]),
            now=self._sim.now,
            bank_row=row,
        )
        uid = int(self._store.uid[slot])
        self._uid_slot[uid] = slot
        return uid

    def _churn_join(self) -> int:
        with self._ph_churn:
            self._flush_accumulators()
            uid = self._create_peer()
            self._population_changed = True
            self._grouping = None
            self._ctr_joins.inc()
        return uid

    def _churn_leave(self, uid: int) -> None:
        with self._ph_churn:
            slot = self._uid_slot.pop(int(uid), None)
            if slot is None or not self._store.online[slot]:
                return
            self._flush_accumulators()
            self._bank.release(
                int(self._store.channel[slot]), int(self._store.bank_row[slot])
            )
            self._store.release(slot, now=self._sim.now)
            self._population_changed = True
            self._grouping = None
            self._ctr_leaves.inc()

    def _switch_once(self) -> Optional[int]:
        """One viewer channel switch; returns the replacement's uid."""
        online = self._store.online_slots()
        if not online.size:
            return None
        slot = online[int(self._switch_rng.integers(online.size))]
        self._flush_accumulators()
        self._churn_leave(int(self._store.uid[slot]))
        uid = self._create_peer()
        self._channel_switches += 1
        self._population_changed = True
        self._grouping = None
        self._ctr_switches.inc()
        return uid

    def _set_channel_weights(self, weights: np.ndarray) -> None:
        self._channel_weights = weights

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
    def store(self) -> PeerStore:
        """The struct-of-arrays peer table.

        Accessing it flushes the round loop's deferred per-peer
        accumulators, so the cumulative columns are always current from
        the caller's point of view.
        """
        self._flush_accumulators()
        return self._store

    @property
    def bank(self) -> GroupedLearnerBank:
        """The learner bank owning every channel's rows."""
        return self._bank

    @property
    def banks(self) -> List:
        """Per-channel bank views, in channel order.

        A :class:`~repro.runtime.grouped_bank.PerChannelGroupedBank`
        returns its actual
        :class:`~repro.runtime.learner_bank.LearnerBank` objects; the
        fused regret bank returns lightweight
        :class:`~repro.runtime.grouped_bank.GroupedChannelView` objects
        exposing ``num_actions`` and the shared width-group
        ``population`` for introspection.
        """
        return self._bank.channel_views()

    @property
    def channels(self) -> List[Channel]:
        """All channels."""
        return self._channels

    @property
    def channel_weights(self) -> np.ndarray:
        """Current channel popularity weights (drift updates them)."""
        return self._channel_weights.copy()

    @property
    def server(self) -> StreamingServer:
        """The origin server."""
        return self._server

    @property
    def trace(self) -> SystemTrace:
        """The recorded per-round history."""
        return self._trace

    @property
    def channel_switches(self) -> int:
        """Viewer channel-switch events processed so far."""
        return self._channel_switches

    @property
    def num_online(self) -> int:
        """Currently online peers."""
        return self._store.num_online

    def invalidate_round_cache(self) -> None:
        """Drop the memoized round grouping and the store's channel index.

        The round loop caches the channel-sorted permutation of online
        slots, their bank rows, and their demand totals until the
        population changes (churn and channel switches invalidate
        automatically, updating the store's channel index incrementally).
        Call this after mutating the grouping-defining store columns
        directly — ``channel``, ``demand``, ``online`` or ``bank_row`` —
        so the next round observes the edit (the deferred per-peer
        accumulators are flushed into the store first).
        """
        self._flush_accumulators()
        self._grouping = None
        self._store.invalidate_channel_index()

    # ------------------------------------------------------------------
    # The learning round
    # ------------------------------------------------------------------

    def _round_grouping(self):
        """The channel-sorted round grouping, memoized until churn.

        Returns ``(online, perm, offsets, rows_sorted, chan_sorted,
        demand_online, total_demand, min_deficit)``: ``online`` the
        ascending online slots, ``perm`` the positions inside ``online``
        of the channel-sorted slots (``online[perm]`` is sorted by
        ``(channel, slot)``), ``offsets`` the per-channel segment table,
        ``rows_sorted`` / ``chan_sorted`` the bank rows and channel ids
        in sorted order, and ``min_deficit`` the Fig. 5 lower bound
        (a pure function of the demand total, so it is computed here
        once per churn epoch instead of once per round).  The sorted
        permutation is maintained incrementally by the store's channel
        index, so churn-free stretches pay nothing and a churn-y round
        pays one concatenation instead of a per-channel rescan.
        """
        if self._grouping is None:
            store = self._store
            online = store.online_slots()
            slots_sorted, offsets = store.channel_grouping(
                self._config.num_channels
            )
            position_of = np.empty(max(store.size, 1), dtype=np.int64)
            position_of[online] = np.arange(online.size, dtype=np.int64)
            demand_online = store.demand[online]
            total_demand = float(demand_online.sum())
            self._grouping = (
                online,
                position_of[slots_sorted],
                offsets,
                store.bank_row[slots_sorted],
                store.channel[slots_sorted],
                demand_online,
                total_demand,
                max(0.0, total_demand - self._min_caps_sum),
            )
            self._acc_rounds = 0
            self._acc_rate = np.zeros(online.size)
            self._acc_deficit = np.zeros(online.size)
            self._helper_buf = np.empty(online.size, dtype=np.int64)
        return self._grouping

    def _flush_accumulators(self) -> None:
        """Fold the deferred per-round accumulators into the store.

        Called before any mutation that invalidates the grouping (the
        accumulators are aligned with its ``online`` array and slots may
        be recycled afterwards), on ``store`` access, and at the end of
        :meth:`run`.
        """
        if self._grouping is None or self._acc_rounds == 0:
            return
        online = self._grouping[0]
        store = self._store
        store.rounds_participated[online] += self._acc_rounds
        store.cumulative_rate[online] += self._acc_rate
        store.cumulative_deficit[online] += self._acc_deficit
        self._acc_rounds = 0
        self._acc_rate[:] = 0.0
        self._acc_deficit[:] = 0.0

    def _execute_round(self, _: Simulator) -> None:
        round_t0 = self._ph_total.start()
        config = self._config
        store = self._store
        num_helpers = config.num_helpers
        t0 = self._ph_capacity.start()
        caps = np.asarray(self._capacity_process.capacities(), dtype=float)
        self._ph_capacity.stop(t0)
        t0 = self._ph_grouping.start()
        (
            online, perm, offsets, rows_sorted, chan_sorted,
            demand_online, total_demand, min_deficit,
        ) = self._round_grouping()
        self._ph_grouping.stop(t0)
        n = online.size

        # 1. One fused draw: every online peer's helper, all channels at
        # once.  Work stays in channel-sorted order for the bank and is
        # scattered back to slot (= creation) order for the aggregates,
        # so sums below run in the same order as the per-channel path.
        t0 = self._ph_act.start()
        local = self._bank.act_all(offsets, rows_sorted)
        helper_global = self._helper_buf
        helper_global[perm] = self._helper_table[chan_sorted, local]
        loads = np.bincount(helper_global, minlength=num_helpers)
        self._ph_act.stop(t0)

        # 2./3. Shares realize; the server covers deficits.
        t0 = self._ph_reduce.start()
        if n:
            shares = caps[helper_global] / loads[helper_global]
            deficits = np.maximum(0.0, demand_online - shares)
            total_share = float(shares.sum())
            total_deficit_requested = float(deficits.sum())
        else:
            shares = np.empty(0)
            deficits = np.empty(0)
            total_share = 0.0
            total_deficit_requested = 0.0
        granted = self._server.serve(total_deficit_requested)
        self._ph_reduce.stop(t0)

        # 4. One fused observe: the banks see the raw helper shares (the
        # game utility), gathered back into channel-sorted order.
        t0 = self._ph_observe.start()
        self._bank.observe_all(offsets, rows_sorted, local, shares[perm])
        if n:
            self._acc_rounds += 1
            self._acc_rate += shares
            self._acc_deficit += deficits
        self._ph_observe.stop(t0)

        t0 = self._ph_trace.start()
        self._trace.append_round(
            time=self._sim.now,
            capacities=caps,
            loads=loads,
            welfare=total_share,
            server_load=granted,
            min_deficit=min_deficit,
            online_peers=n,
            total_demand=total_demand,
        )

        if config.record_peers:
            if self._population_changed:
                raise RuntimeError(
                    "record_peers=True requires a fixed population; disable "
                    "churn or per-peer recording"
                )
            # Global helper ids, in slot (= creation) order, exactly like
            # the scalar system's peer order.
            self._trace.actions.append(helper_global.copy())  # type: ignore[union-attr]
            self._trace.utilities.append(shares.copy())  # type: ignore[union-attr]
        self._ph_trace.stop(t0)

        t0 = self._ph_capacity.start()
        self._capacity_process.advance()
        self._ph_capacity.stop(t0)
        self._round_index += 1
        self._ctr_rounds.inc()
        self._gauge_online.set(n)
        self._hist_round_s.observe(self._ph_total.stop(round_t0))
        self._pump.maybe(self._round_index)

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
        self._flush_accumulators()
        return self._trace

    def close(self) -> None:
        """End the run: drop the pending events.

        Churn, switching and round events call back into this system, so
        while they are queued the system sits in a reference cycle and
        outlives its last user until the garbage collector runs.  The
        trace stays readable; the system cannot run on.
        """
        self._sim.clear()
