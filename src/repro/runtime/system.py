"""The vectorized streaming runtime.

:class:`VectorizedStreamingSystem` is a drop-in, array-backed
implementation of the full multi-channel streaming system of
:class:`repro.sim.system.StreamingSystem`: same
:class:`~repro.spec.ExperimentSpec`, same discrete-event engine
driving rounds and churn, same origin-server semantics, and the same
:class:`~repro.sim.trace.SystemTrace` columns — so every
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

Everything but the peers and the round comes from
:class:`repro.sim.system.SystemSkeleton`, which the scalar system
inherits too: server, trace, capacity process, channels, helper
partition, churn, viewer switching, popularity drift and the round loop.
This module adds the peer store, the bank, the churn callbacks and the
array round.

Given identical helper choices the scalar and vectorized systems produce
identical round records (asserted trace-for-trace in
``tests/runtime/test_equivalence.py`` by scripting the choices); with
learners on, agreement is distributional (same dynamics, different RNG
stream layout).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.runtime.grouped_bank import GroupedLearnerBank
from repro.runtime.learner_bank import BankFactory
from repro.runtime.peer_store import PeerStore
from repro.sim.engine import Simulator
from repro.sim.system import SystemSkeleton
from repro.sim.trace import SystemTrace
from repro.telemetry import get_telemetry
from repro.util.logconfig import get_logger
from repro.util.rng import Seedish, spawn

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.spec.model import ExperimentSpec

logger = get_logger("runtime")


class VectorizedStreamingSystem(SystemSkeleton):
    """A runnable multi-channel P2P streaming deployment, array-backed.

    Parameters
    ----------
    spec:
        The same :class:`~repro.spec.ExperimentSpec` the scalar system
        takes.  ``learner.dtype`` sets the float dtype of the per-peer
        accumulator columns (:class:`~repro.runtime.peer_store.PeerStore`
        ``demand`` / ``cumulative_rate`` / ``cumulative_deficit``):
        ``"float32"`` halves their memory traffic; pair it with a float32
        bank via ``bank_factory(..., dtype=np.float32)`` for the full
        effect.  Round records stay float64.
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
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        bank_factory: BankFactory,
        rng: Seedish = None,
        capacity_process=None,
        initial_channels: Optional[Sequence[int]] = None,
    ) -> None:
        self._bank_factory = bank_factory
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
        super().__init__(spec, rng, capacity_process, initial_channels)

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
        topology = spec.topology
        logger.debug(
            "vectorized system up: N=%d H=%d C=%d bank=%s dtype=%s",
            topology.num_peers, topology.num_helpers, topology.num_channels,
            type(self._bank).__name__, spec.learner.dtype,
        )

    # ------------------------------------------------------------------
    # Population and churn callbacks
    # ------------------------------------------------------------------

    def _populate(self, initial_channels: Optional[np.ndarray]) -> List[int]:
        topology = self._spec.topology
        # Per-channel playback bitrates as a lookup table: demand vectors
        # for whole populations (and single join events) become one
        # gather instead of a Python loop over the channels.
        self._bitrate_table = np.asarray(topology.bitrates(), dtype=float)
        # Channel-local action -> global helper id: entry c * stride + a
        # of this flattened table, one 1-D gather per round (padding never
        # indexed past the channel's width).
        widths = [len(helpers) for helpers in self._channel_helpers]
        self._helper_stride = max(widths)
        table = np.full(
            (topology.num_channels, self._helper_stride), -1, dtype=np.int64
        )
        for c, helpers in enumerate(self._channel_helpers):
            table[c, : len(helpers)] = helpers
        self._helper_table = table.reshape(-1)

        # The learner bank: one object owning every channel's rows, built
        # from child generators spawned in channel order.
        bank_rngs = [spawn(self._rng) for _ in range(topology.num_channels)]
        self._bank: GroupedLearnerBank = self._bank_factory(widths, bank_rngs)
        if self._bank.num_channels != topology.num_channels:
            raise ValueError(
                f"bank hosts {self._bank.num_channels} channels, the spec "
                f"has {topology.num_channels}"
            )
        for c, width in enumerate(widths):
            if self._bank.num_actions_of(c) != width:
                raise ValueError(
                    f"bank produced {self._bank.num_actions_of(c)} actions "
                    f"for channel {c} with {width} helpers"
                )

        # Initial population, bulk-allocated.  Churn handles are uids,
        # which are never reused, so a stale leave event can never hit a
        # recycled slot (see _churn_leave).
        self._store = PeerStore(
            initial_capacity=max(64, topology.num_peers),
            dtype=np.dtype(self._spec.learner.dtype),
        )
        if initial_channels is None:
            channels = self._sampler.draw(self._rng, topology.num_peers).astype(
                np.int64
            )
        else:
            channels = initial_channels
        demands = self._bitrate_table[channels]
        slots = self._store.allocate_many(channels, demands, now=self._sim.now)
        for c in range(topology.num_channels):
            mask = channels == c
            count = int(mask.sum())
            if count == 0:
                continue
            self._store.bank_row[slots[mask]] = self._bank.acquire_many(c, count)
        self._uid_slot: dict[int, int] = {}
        for slot in slots:
            self._uid_slot[int(self._store.uid[slot])] = int(slot)
        return list(self._uid_slot)

    def _create_peer(self, channel_id: Optional[int] = None) -> int:
        """Bring one peer online; returns its uid."""
        if channel_id is None:
            channel_id = int(self._sampler.draw(self._rng))
        row = self._bank.acquire(channel_id)
        slot = self._store.allocate(
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
            # A peer that already left has no uid entry any more, and
            # uids are never reused: a stale leave is a no-op.
            slot = self._uid_slot.pop(int(uid), None)
            if slot is None:
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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
    def num_online(self) -> int:
        """Currently online peers."""
        return self._store.num_online

    # ------------------------------------------------------------------
    # The learning round
    # ------------------------------------------------------------------

    def _round_grouping(self):
        """The channel-sorted round grouping, memoized until churn.

        Returns ``(online, perm, offsets, rows_sorted, helper_base,
        demand_online, total_demand, min_deficit)``: ``online`` the
        ascending online slots, ``perm`` the positions inside ``online``
        of the channel-sorted slots (``online[perm]`` is sorted by
        ``(channel, slot)``), ``offsets`` the per-channel segment table,
        ``rows_sorted`` the bank rows in sorted order, ``helper_base``
        each sorted row's channel offset into the flat helper table,
        and ``min_deficit`` the Fig. 5 lower bound
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
                self._spec.topology.num_channels
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
                store.channel[slots_sorted] * self._helper_stride,
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
        store = self._store
        num_helpers = self._spec.topology.num_helpers
        t0 = self._ph_capacity.start()
        caps = np.asarray(self._capacity_process.capacities(), dtype=float)
        self._ph_capacity.stop(t0)
        t0 = self._ph_grouping.start()
        (
            online, perm, offsets, rows_sorted, helper_base,
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
        helper_global[perm] = self._helper_table[helper_base + local]
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

        if self._spec.metrics.record_peers:
            # Global helper ids, in slot (= creation) order, exactly like
            # the scalar system's peer order.
            self._record_peer_rows(helper_global.copy(), shares.copy())
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

        The skeleton's round loop, then the deferred per-peer
        accumulators are folded into the store.  May be called
        repeatedly; the trace accumulates.
        """
        trace = super().run(num_rounds)
        self._flush_accumulators()
        return trace
