"""The fused multi-channel learner engine.

The vectorized system's round loop used to make ``2 * C`` small bank
calls per round — one ``act`` and one ``observe`` per channel — which is
overhead-bound once channel counts reach the scenario-diversity regime
(C >= 20): each call is a handful of tiny numpy dispatches on a few
hundred rows.  This module fuses them.  A :class:`GroupedLearnerBank`
owns **every** peer row across **all** channels and advances the whole
population with exactly one :meth:`~GroupedLearnerBank.act_all` and one
:meth:`~GroupedLearnerBank.observe_all` per round, operating on the
channel-sorted permutation of the online peers (per-channel offsets mark
the segments).

Two implementations:

* :class:`GroupedRegretBank` — the fused engine for the regret families
  (dense :class:`~repro.core.population.LearnerPopulation` or sparse
  :class:`~repro.core.sparse_population.TopKPopulation` storage).
  Channels are grouped by **arm count** (helpers partition round-robin,
  so at most two distinct widths exist) and each width group hosts all of
  its channels' rows in a single backing population — one gather/cumsum/
  update kernel pass per width instead of one per channel.
* :class:`PerChannelGroupedBank` — the per-channel adapter: wraps a
  ``List[LearnerBank]`` and loops channels inside the fused API.  The
  stateless uniform/sticky baselines run on it (their round cost is the
  per-channel RNG call, so there is nothing to fuse), and wrapped around
  per-channel regret banks it is the reference oracle the fused engine
  is asserted bit-identical against.

**Bit-identity.**  The fused engine reproduces the per-channel path
float-for-float, by construction:

* every channel keeps its *own* child generator (spawned in channel
  order, exactly like the per-channel banks), and ``act_all`` feeds each
  channel's uniforms into the shared kernel via the populations'
  ``draws=`` hook — so action streams match draw-for-draw;
* rows of one width live in a population with exactly that many arms
  (no padding ever enters the arithmetic), and every kernel operation is
  per-row, so batching rows of many channels into one call leaves each
  row's float sequence unchanged;
* the sparse population keeps a *per-channel-group* play-popularity EWMA
  (see ``num_channel_groups``), so top-k re-selection sees only its own
  channel's plays — just as with private per-channel banks.

``tests/runtime/test_grouped_engine.py`` asserts the resulting
``SystemTrace`` equality trace-for-trace, dense and topk, with and
without churn.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.population import LearnerPopulation
from repro.runtime.learner_bank import _INITIAL_ROWS, LearnerBank, _PopulationRows
from repro.telemetry import get_telemetry
from repro.util.rng import as_generator


@runtime_checkable
class GroupedLearnerBank(Protocol):
    """Strategy state for all peers of *all* channels, advanced fused.

    ``offsets`` is the ``(C + 1,)`` per-channel segment table into the
    channel-sorted row permutation: channel ``c`` owns positions
    ``offsets[c]:offsets[c + 1]``.  Row indices are bank-internal (the
    system stores them in ``PeerStore.bank_row``); a channel's rows are
    only meaningful together with that channel id.
    """

    @property
    def num_channels(self) -> int:
        """Number of channels this bank hosts."""
        ...

    def num_actions_of(self, channel: int) -> int:
        """Action-set size (helper count) of ``channel``."""
        ...

    def acquire(self, channel: int) -> int:
        """Claim a fresh-state row for a peer joining ``channel``."""
        ...

    def acquire_many(self, channel: int, count: int) -> np.ndarray:
        """Bulk :meth:`acquire` for initial populations."""
        ...

    def release(self, channel: int, row: int) -> None:
        """Return a leaving peer's row to ``channel``'s free pool."""
        ...

    def act_all(self, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One fused draw: a channel-local action per listed row."""
        ...

    def observe_all(
        self,
        offsets: np.ndarray,
        rows: np.ndarray,
        actions: np.ndarray,
        utilities: np.ndarray,
    ) -> None:
        """One fused update feeding realized utilities back to the rows."""
        ...

    def channel_views(self) -> List:
        """Per-channel bank(-view) objects, for introspection."""
        ...


def build_per_channel_banks(
    bank_factory, arm_counts: Sequence[int], rngs: Sequence
) -> List[LearnerBank]:
    """Build one bank per channel, with channel-naming error context.

    ``bank_factory`` is a per-channel builder ``(num_actions, rng) ->
    LearnerBank``.  A build failure (e.g. a one-helper channel under a
    regret family) reports *which* channel could not be built.
    """
    banks: List[LearnerBank] = []
    for c, (size, rng) in enumerate(zip(arm_counts, rngs)):
        size = int(size)
        try:
            bank = bank_factory(size, rng)
        except ValueError as exc:
            raise ValueError(
                f"cannot build a learner bank for channel {c} with "
                f"{size} helper(s): {exc}"
            ) from exc
        if bank.num_actions != size:
            raise ValueError(
                f"bank_factory produced {bank.num_actions} actions for "
                f"a channel with {size} helpers"
            )
        banks.append(bank)
    return banks


def _channel_segments(channels, offsets: List[int]) -> List[tuple]:
    """Non-empty ``(channel, start, stop)`` segments, in channel order
    (``offsets`` as a list of Python ints)."""
    return [
        (c, offsets[c], offsets[c + 1])
        for c in channels
        if offsets[c + 1] > offsets[c]
    ]


class PerChannelGroupedBank:
    """Per-channel banks behind the fused API.

    Dispatches one ``act``/``observe`` per non-empty channel inside
    :meth:`act_all` / :meth:`observe_all` — operation-for-operation the
    pre-fusion round loop.  It hosts the baselines' banks, serves as the
    bit-identity oracle for :class:`GroupedRegretBank`, and adapts any
    per-channel :class:`~repro.runtime.learner_bank.LearnerBank` (scripted
    test banks included) to the one bank-factory contract.
    """

    def __init__(self, banks: Sequence[LearnerBank]) -> None:
        self._banks = list(banks)
        tel = get_telemetry()
        self._ph_act = tel.phase("bank.act")
        self._ph_observe = tel.phase("bank.observe")

    @property
    def num_channels(self) -> int:
        return len(self._banks)

    def num_actions_of(self, channel: int) -> int:
        return self._banks[channel].num_actions

    def acquire(self, channel: int) -> int:
        return self._banks[channel].acquire()

    def acquire_many(self, channel: int, count: int) -> np.ndarray:
        return self._banks[channel].acquire_many(count)

    def release(self, channel: int, row: int) -> None:
        self._banks[channel].release(row)

    def act_all(self, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t0 = self._ph_act.start()
        local = np.empty(int(offsets[-1]), dtype=np.int64)
        for c, start, stop in _channel_segments(
            range(len(self._banks)), offsets.tolist()
        ):
            local[start:stop] = self._banks[c].act(rows[start:stop])
        self._ph_act.stop(t0)
        return local

    def observe_all(
        self,
        offsets: np.ndarray,
        rows: np.ndarray,
        actions: np.ndarray,
        utilities: np.ndarray,
    ) -> None:
        t0 = self._ph_observe.start()
        for c, start, stop in _channel_segments(
            range(len(self._banks)), offsets.tolist()
        ):
            self._banks[c].observe(
                rows[start:stop], actions[start:stop], utilities[start:stop]
            )
        self._ph_observe.stop(t0)

    def channel_views(self) -> List[LearnerBank]:
        return list(self._banks)


class _GroupRows(_PopulationRows):
    """Row lifecycle of one width group over its shared population."""

    def __init__(self, population, initial_rows: int) -> None:
        super().__init__(initial_rows)
        self._pop = population


class _WidthGroup:
    """All channels sharing one arm count, hosted in one population.

    ``contiguous`` says whether the (ascending) channels form one id
    range, as they always do under the round-robin partition: then the
    group's rows are one slice of the channel-sorted order.
    """

    __slots__ = ("width", "channels", "contiguous", "population", "rows")

    def __init__(self, width, channels, population, rows) -> None:
        self.width = width
        self.channels = channels
        self.contiguous = channels[-1] - channels[0] + 1 == len(channels)
        self.population = population
        self.rows = rows

    def positions(self, offsets: List[int]):
        """Where the group's rows sit in the channel-sorted order: a
        slice when contiguous, else a gather index, in channel order."""
        if self.contiguous:
            return slice(offsets[self.channels[0]], offsets[self.channels[-1] + 1])
        return np.concatenate(
            [np.arange(offsets[c], offsets[c + 1]) for c in self.channels]
        )


class GroupedChannelView:
    """Introspection view of one channel inside a fused bank.

    Mirrors the read surface of a per-channel regret bank
    (``num_actions``, ``population``, ``k`` where sparse); rows handed
    out for this channel index directly into the shared width-group
    ``population``.
    """

    def __init__(self, bank: "GroupedRegretBank", channel: int) -> None:
        self._bank = bank
        self._channel = int(channel)

    @property
    def channel(self) -> int:
        """The viewed channel id."""
        return self._channel

    @property
    def num_actions(self) -> int:
        """The channel's helper count."""
        return self._bank.num_actions_of(self._channel)

    @property
    def population(self):
        """The shared backing population of the channel's width group."""
        return self._bank.population_of(self._channel)

    @property
    def k(self) -> int:
        """Tracked arms per row (sparse storage only)."""
        return self.population.k


class GroupedRegretBank:
    """Fused regret engine: every channel's rows, two kernel calls/round.

    Parameters
    ----------
    arm_counts:
        Helper count per channel (the round-robin partition's widths).
    rngs:
        One child generator per channel, spawned in channel order — the
        same streams the per-channel banks would own, consumed one
        ``random(n_c)`` call per non-empty channel per round.
    epsilon, mu, delta, u_max, dtype:
        As in :class:`~repro.runtime.learner_bank.RegretBank`; ``mu=None``
        resolves to each width's own default, exactly like per-channel
        banks.
    bank, topk, reselect_every:
        Storage family: ``"dense"`` full regret tensors or ``"topk"``
        sparse :class:`~repro.core.sparse_population.TopKPopulation`
        blocks (``topk`` arms per row, popularity re-selection every
        ``reselect_every`` stages, per-channel popularity domains).
    """

    def __init__(
        self,
        arm_counts: Sequence[int],
        rngs: Sequence,
        epsilon: float = 0.05,
        mu: Optional[float] = None,
        delta: float = 0.1,
        u_max: float = 1.0,
        dtype=np.float64,
        bank: str = "dense",
        topk: int = 32,
        reselect_every: int = 32,
        initial_rows: int = _INITIAL_ROWS,
    ) -> None:
        arm_counts = [int(a) for a in arm_counts]
        if len(rngs) != len(arm_counts):
            raise ValueError("need one child generator per channel")
        if bank not in ("dense", "topk"):
            raise ValueError(f"bank must be 'dense' or 'topk', got {bank!r}")
        self._arm_counts = arm_counts
        self._rngs = [as_generator(r) for r in rngs]
        self._sparse = bank == "topk"
        self._groups: List[_WidthGroup] = []
        self._group_of = np.empty(len(arm_counts), dtype=np.int64)
        # A channel's popularity-domain index inside its width group
        # (sparse storage: selects the group-local play EWMA).
        self._domain_of = np.zeros(len(arm_counts), dtype=np.int64)
        by_width: dict = {}
        for c, width in enumerate(arm_counts):
            by_width.setdefault(width, []).append(c)
        for width in sorted(by_width):
            channels = by_width[width]
            try:
                if self._sparse:
                    from repro.core.sparse_population import TopKPopulation

                    population = TopKPopulation(
                        initial_rows,
                        width,
                        k=topk,
                        epsilon=epsilon,
                        mu=mu,
                        delta=delta,
                        u_max=u_max,
                        dtype=dtype,
                        reselect_every=reselect_every,
                        num_channel_groups=len(channels),
                    )
                else:
                    population = LearnerPopulation(
                        initial_rows,
                        width,
                        epsilon=epsilon,
                        mu=mu,
                        delta=delta,
                        u_max=u_max,
                        dtype=dtype,
                    )
            except ValueError as exc:
                raise ValueError(
                    f"cannot build a learner bank for channel {channels[0]} "
                    f"with {width} helper(s): {exc}"
                ) from exc
            group = _WidthGroup(
                width, channels, population, _GroupRows(population, initial_rows)
            )
            index = len(self._groups)
            self._groups.append(group)
            for domain, c in enumerate(channels):
                self._group_of[c] = index
                self._domain_of[c] = domain
        tel = get_telemetry()
        self._ph_act = tel.phase("bank.act")
        self._ph_observe = tel.phase("bank.observe")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self._arm_counts)

    @property
    def num_width_groups(self) -> int:
        """Distinct arm counts (= fused kernel passes per round)."""
        return len(self._groups)

    def num_actions_of(self, channel: int) -> int:
        return self._arm_counts[channel]

    def population_of(self, channel: int):
        """The shared backing population hosting ``channel``'s rows."""
        return self._groups[self._group_of[channel]].population

    def channel_views(self) -> List[GroupedChannelView]:
        return [
            GroupedChannelView(self, c) for c in range(len(self._arm_counts))
        ]

    # ------------------------------------------------------------------
    # Row lifecycle (free-list churn, O(1) per event)
    # ------------------------------------------------------------------

    def acquire(self, channel: int) -> int:
        group = self._groups[self._group_of[channel]]
        row = group.rows.acquire()
        if self._sparse:
            group.population.set_slot_groups(row, int(self._domain_of[channel]))
        return row

    def acquire_many(self, channel: int, count: int) -> np.ndarray:
        group = self._groups[self._group_of[channel]]
        rows = group.rows.acquire_many(count)
        if self._sparse and rows.size:
            group.population.set_slot_groups(
                rows, int(self._domain_of[channel])
            )
        return rows

    def release(self, channel: int, row: int) -> None:
        self._groups[self._group_of[channel]].rows.release(row)

    # ------------------------------------------------------------------
    # The two fused calls
    # ------------------------------------------------------------------

    def act_all(self, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t0 = self._ph_act.start()
        offsets = offsets.tolist()
        local = np.empty(offsets[-1], dtype=np.int64)
        for group in self._groups:
            index = group.positions(offsets)
            slots = rows[index]
            if not slots.size:
                continue
            # Per-channel uniforms from per-channel streams (bit-identity
            # with private banks), written in channel order into one
            # buffer; everything else is one kernel call.
            draws = np.empty(slots.size)
            at = 0
            for c, start, stop in _channel_segments(group.channels, offsets):
                self._rngs[c].random(out=draws[at:at + stop - start])
                at += stop - start
            local[index] = group.population.act_slots(slots, draws=draws)
        self._ph_act.stop(t0)
        return local

    def observe_all(
        self,
        offsets: np.ndarray,
        rows: np.ndarray,
        actions: np.ndarray,
        utilities: np.ndarray,
    ) -> None:
        t0 = self._ph_observe.start()
        offsets = offsets.tolist()
        for group in self._groups:
            index = group.positions(offsets)
            slots = rows[index]
            if slots.size:
                group.population.observe_slots(
                    slots, actions[index], utilities[index]
                )
        self._ph_observe.stop(t0)
