"""Struct-of-arrays peer table with O(1) churn.

The scalar :class:`~repro.sim.system.StreamingSystem` holds one Python
:class:`~repro.sim.entities.Peer` object per viewer; at the
millions-of-users scale the runtime targets, object churn and per-object
attribute access dominate.  :class:`PeerStore` keeps the same per-peer
state as parallel numpy arrays (one column per field) so the round loop
reads and writes whole-population slices.

Joins and leaves are O(1) array writes through a **free-list**: a leaving
peer's slot index is pushed on a stack and handed to the next arrival.
Slots are reused, uids are not: every allocation gets the next uid, so a
uid can never alias a later occupant of the same slot (the property test
in ``tests/runtime/test_peer_store.py`` hammers this), and the vectorized
system keys its churn events by uid.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Set, Tuple

import numpy as np


class PeerStore:
    """Dense per-peer state in struct-of-arrays layout.

    Public array attributes (length = :attr:`capacity`; rows at or past
    :attr:`size` are unused):

    * ``channel`` — watched channel id (``-1`` when the slot is free)
    * ``demand`` — required streaming rate (kbit/s)
    * ``online`` — participation mask (the round loop's filter)
    * ``bank_row`` — row index inside the channel's learner bank
    * ``uid`` — globally unique peer id (never reused)
    * ``joined_at`` / ``left_at`` — simulation timestamps
    * ``rounds_participated`` / ``cumulative_rate`` / ``cumulative_deficit``
      — the same lifetime statistics :class:`~repro.sim.entities.Peer`
      accumulates

    A peer's ``channel``, ``demand`` and ``online`` entries change only
    through :meth:`allocate`, :meth:`allocate_many` and :meth:`release`,
    which keep the channel index (:meth:`channel_grouping`) in step; no
    column is edited from outside.  The owning system writes only the
    ``bank_row`` of slots it has just allocated and folds its round
    accumulators into the statistics columns.

    ``dtype`` (``numpy.float64`` default, ``numpy.float32`` opt-in) sets
    the precision of the rate columns (``demand`` / ``cumulative_rate`` /
    ``cumulative_deficit``) — the arrays the round loop streams through
    every round.  Timestamps (``joined_at`` / ``left_at``) stay float64:
    they are cold and lose whole simulation seconds in float32 once the
    clock passes ~2²⁴.
    """

    def __init__(self, initial_capacity: int = 64, dtype=np.float64) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        cap = int(initial_capacity)
        self.channel = np.full(cap, -1, dtype=np.int64)
        self.demand = np.zeros(cap, dtype=dtype)
        self.online = np.zeros(cap, dtype=bool)
        self.bank_row = np.full(cap, -1, dtype=np.int64)
        self.uid = np.full(cap, -1, dtype=np.int64)
        self.joined_at = np.zeros(cap)
        self.left_at = np.full(cap, np.nan)
        self.rounds_participated = np.zeros(cap, dtype=np.int64)
        self.cumulative_rate = np.zeros(cap, dtype=dtype)
        self.cumulative_deficit = np.zeros(cap, dtype=dtype)
        self._dtype = dtype
        self._capacity = cap
        self._size = 0              # slots ever touched (fresh watermark)
        self._free: List[int] = []  # released slots, LIFO
        self._num_online = 0
        self._total_created = 0
        # Incremental channel index: per-channel sorted slot lists kept in
        # step with allocate/release, plus cached ndarray segments (see
        # channel_grouping).  A join/leave costs O(log n_c + n_c memmove)
        # here instead of an O(N * C) per-channel rescan at the next
        # round.
        self._members: Dict[int, List[int]] = {}
        self._member_arrays: Dict[int, np.ndarray] = {}
        self._dirty_channels: Set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Allocated array length."""
        return self._capacity

    @property
    def dtype(self) -> np.dtype:
        """Float dtype of the rate columns."""
        return self._dtype

    @property
    def size(self) -> int:
        """Highest slot index ever used plus one."""
        return self._size

    @property
    def num_online(self) -> int:
        """Currently online peers — O(1)."""
        return self._num_online

    @property
    def total_created(self) -> int:
        """Peers ever allocated (equals the next uid)."""
        return self._total_created

    @property
    def free_slots(self) -> int:
        """Slots currently on the free-list."""
        return len(self._free)

    def online_slots(self) -> np.ndarray:
        """Indices of online slots, ascending (= peer creation order for a
        churn-free population)."""
        return np.flatnonzero(self.online[: self._size])

    # ------------------------------------------------------------------
    # Incremental channel index
    # ------------------------------------------------------------------

    def _index_add(self, channel: int, slot: int) -> None:
        members = self._members.setdefault(channel, [])
        if not members or slot > members[-1]:
            members.append(slot)
        else:
            insort(members, slot)
        self._dirty_channels.add(channel)

    def _index_remove(self, channel: int, slot: int) -> None:
        members = self._members.get(channel, [])
        i = bisect_left(members, slot)
        if i == len(members) or members[i] != slot:
            raise RuntimeError(f"slot {slot} is missing from channel {channel}'s index")
        del members[i]
        self._dirty_channels.add(channel)

    def channel_grouping(
        self, num_channels: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Online slots sorted by ``(channel, slot)`` plus segment offsets.

        Returns ``(slots_sorted, offsets)`` with ``offsets`` of shape
        ``(num_channels + 1,)``: channel ``c``'s online slots are
        ``slots_sorted[offsets[c]:offsets[c + 1]]``, ascending.  This is
        the channel-sorted permutation the fused learner engine consumes;
        it is maintained incrementally under churn (only channels dirtied
        since the last call re-materialize their segment array).
        """
        counts = np.zeros(num_channels + 1, dtype=np.int64)
        for channel, members in self._members.items():
            if not members:
                continue
            if not 0 <= channel < num_channels:
                raise ValueError(
                    f"slot channel {channel} outside [0, {num_channels})"
                )
            counts[channel + 1] = len(members)
        offsets = np.cumsum(counts)
        slots_sorted = np.empty(int(offsets[-1]), dtype=np.int64)
        for channel, members in self._members.items():
            if not members:
                continue
            if (
                channel in self._dirty_channels
                or channel not in self._member_arrays
            ):
                self._member_arrays[channel] = np.array(
                    members, dtype=np.int64
                )
            slots_sorted[offsets[channel]: offsets[channel + 1]] = (
                self._member_arrays[channel]
            )
        self._dirty_channels.clear()
        return slots_sorted, offsets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _grow(self, needed: int) -> None:
        new_cap = max(needed, 2 * self._capacity)
        extra = new_cap - self._capacity

        def pad(arr: np.ndarray, fill) -> np.ndarray:
            tail = np.full(extra, fill, dtype=arr.dtype)
            return np.concatenate([arr, tail])

        self.channel = pad(self.channel, -1)
        self.demand = pad(self.demand, 0.0)
        self.online = pad(self.online, False)
        self.bank_row = pad(self.bank_row, -1)
        self.uid = pad(self.uid, -1)
        self.joined_at = pad(self.joined_at, 0.0)
        self.left_at = pad(self.left_at, np.nan)
        self.rounds_participated = pad(self.rounds_participated, 0)
        self.cumulative_rate = pad(self.cumulative_rate, 0.0)
        self.cumulative_deficit = pad(self.cumulative_deficit, 0.0)
        self._capacity = new_cap

    def allocate(
        self, channel: int, demand: float, now: float = 0.0, bank_row: int = -1
    ) -> int:
        """Bring one peer online; returns its slot.

        Reuses the most recently freed slot if any (LIFO keeps the touched
        region compact), else extends the fresh watermark.
        """
        if demand <= 0:
            raise ValueError(f"demand must be positive, got {demand}")
        if self._free:
            slot = self._free.pop()
        else:
            if self._size >= self._capacity:
                self._grow(self._size + 1)
            slot = self._size
            self._size += 1
        self.channel[slot] = int(channel)
        self.demand[slot] = float(demand)
        self.online[slot] = True
        self.bank_row[slot] = int(bank_row)
        self.uid[slot] = self._total_created
        self.joined_at[slot] = float(now)
        self.left_at[slot] = np.nan
        self.rounds_participated[slot] = 0
        self.cumulative_rate[slot] = 0.0
        self.cumulative_deficit[slot] = 0.0
        self._total_created += 1
        self._num_online += 1
        self._index_add(int(channel), slot)
        return slot

    def allocate_many(
        self,
        channels: np.ndarray,
        demands: np.ndarray,
        now: float = 0.0,
    ) -> np.ndarray:
        """Bulk variant of :meth:`allocate` for initial populations.

        Only valid while the free-list is empty (construction time); slots
        come out as the contiguous block ``[size, size + k)``.
        """
        channels = np.asarray(channels, dtype=np.int64)
        demands = np.asarray(demands, dtype=float)
        k = channels.shape[0]
        if demands.shape != (k,):
            raise ValueError("channels and demands must align")
        if np.any(demands <= 0):
            raise ValueError("demands must be positive")
        if k and channels.min() < 0:
            raise ValueError("channels must be non-negative")
        if self._free:
            raise RuntimeError("allocate_many requires an empty free-list")
        start = self._size
        if start + k > self._capacity:
            self._grow(start + k)
        slots = np.arange(start, start + k)
        self.channel[slots] = channels
        self.demand[slots] = demands
        self.online[slots] = True
        self.bank_row[slots] = -1
        self.uid[slots] = np.arange(self._total_created, self._total_created + k)
        self.joined_at[slots] = float(now)
        self._size += k
        self._total_created += k
        self._num_online += k
        # Fresh slots are a block past every existing index entry, so
        # per-channel extends preserve sortedness.  Channels come from
        # bincount, not ``np.unique`` (whose first call imports
        # ``numpy.ma``): the same ascending ids.
        for channel in np.flatnonzero(np.bincount(channels)):
            members = self._members.setdefault(int(channel), [])
            members.extend(slots[channels == channel].tolist())
            self._dirty_channels.add(int(channel))
        return slots

    def release(self, slot: int, now: float = 0.0) -> None:
        """Take a peer offline and recycle its slot."""
        slot = int(slot)
        if not (0 <= slot < self._size) or not self.online[slot]:
            raise ValueError(f"slot {slot} is not online")
        self._index_remove(int(self.channel[slot]), slot)
        self.online[slot] = False
        self.left_at[slot] = float(now)
        self._num_online -= 1
        self._free.append(slot)
