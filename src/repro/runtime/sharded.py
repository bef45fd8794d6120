"""Shard one run's learner banks across worker processes.

A single :class:`~repro.runtime.system.VectorizedStreamingSystem` round
is ~96% learner-bank kernels (``bank.observe`` + ``bank.act``, per the
phase profiler), and those kernels are embarrassingly parallel across
channels: every regret update is per-row and every action draw consumes
a *per-channel* RNG stream.  :class:`ShardedSystem` exploits exactly
that structure.  It presents the ``VectorizedStreamingSystem`` facade
unchanged — same config, same trace, same churn/capacity semantics —
but hosts the banks' heavy state (the ``(rows, H, H)`` regret tensors)
in worker processes, one contiguous channel range per shard.

Split of responsibilities
-------------------------

* **Parent** keeps the discrete-event engine, churn, the capacity
  process, the :class:`~repro.runtime.peer_store.PeerStore`, the round
  grouping, every float reduction, and the trace.  All summation
  therefore happens in exactly the single-process order — one of the
  two pillars of the bit-identity guarantee.
* **Shards** each own a real bank over their channel range — a
  :class:`~repro.runtime.grouped_bank.GroupedRegretBank` for the regret
  families, a :class:`~repro.runtime.grouped_bank.PerChannelGroupedBank`
  for the baselines — built by the same bank factory from the same
  per-channel child generators the single-process system would use
  (the parent spawns them in global channel order and never draws from
  them).  Bank arithmetic is per-row and draws are per-channel, so
  hosting a channel's rows in a smaller bank changes nothing — the
  second pillar.

Per round the parent ships each shard its slice of the channel-sorted
row permutation plus that slice's realized utilities through
:func:`~repro.analysis.parallel.share_array` shared-memory lanes (a
:mod:`multiprocessing` pipe carries only tiny barrier messages), and
reads the actions back from a third lane.

Row bookkeeping without round-trips
-----------------------------------

``acquire``/``release`` must return row ids synchronously (churn events
fire between rounds).  The parent keeps a :class:`_ShardLedger` per
shard — a replica of the shard bank's :class:`~repro.runtime.learner_bank._RowBank`
free lists (one per width group, or one per channel for per-channel
banks) with no backing storage — and applies every command locally,
queueing it for the shard to replay before its next ``act``.  The
free-list logic is deterministic, so ledger and bank agree forever; the
worker *verifies* agreement on every command and fails loudly on
divergence.

Shard-death containment
-----------------------

Every pipe exchange doubles as a heartbeat: a dead or hung shard is
detected at the next barrier (``heartbeat_timeout``).  Recovery is
rebuild-and-replay: the worker is respawned — from its last pickled
checkpoint when one exists, else from the construction closure (the
parent's pristine generator copies make that deterministic) — and the
message log since the checkpoint is replayed, reproducing the bank
state bit-for-bit.  ``checkpoint_every`` bounds the log; retries are
capped by ``max_retries`` like the sweep supervisor's cells.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
import weakref
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.parallel import share_array
from repro.runtime.grouped_bank import GroupedRegretBank, PerChannelGroupedBank
from repro.runtime.learner_bank import _RowBank
from repro.runtime.system import VectorizedStreamingSystem
from repro.telemetry import get_telemetry
from repro.util.logconfig import get_logger

logger = get_logger("runtime.sharded")

#: Seconds granted to a fresh worker to build its bank and greet.
_HELLO_TIMEOUT_S = 120.0
#: Liveness poll granularity while waiting on a shard barrier.
_POLL_TICK_S = 0.05
#: Initial per-shard exchange-lane capacity (rows); doubles on demand.
_INITIAL_LANE_ROWS = 256


class _ShardDead(Exception):
    """A shard worker died or missed its heartbeat deadline."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _open_lanes(handles) -> dict:
    """Materialize the shared exchange lanes in the worker.

    The handle objects are stowed alongside the views: dropping a
    :class:`SharedArrayHandle` drops its attached ``SharedMemory``,
    whose finalizer unmaps the segment and leaves the numpy views
    dangling (a segfault on the next exchange, not an exception).
    """
    return {
        "rows": handles["rows"].load(),
        "utilities": handles["utilities"].load(),
        "actions": handles["actions"].load(writable=True),
        "handles": handles,
    }


def _apply_commands(bank, commands) -> None:
    """Replay the parent ledger's row commands; verify agreement."""
    for cmd in commands:
        op, channel = cmd[0], cmd[1]
        if op == "acquire":
            row = bank.acquire(channel)
            if row != cmd[2]:
                raise RuntimeError(
                    f"shard row ledger divergence: acquire({channel}) "
                    f"returned {row}, parent ledger expected {cmd[2]}"
                )
        elif op == "acquire_many":
            rows = bank.acquire_many(channel, cmd[2])
            if not np.array_equal(rows, cmd[3]):
                raise RuntimeError(
                    f"shard row ledger divergence: acquire_many({channel}, "
                    f"{cmd[2]}) disagrees with the parent ledger"
                )
        elif op == "release":
            bank.release(channel, cmd[2])
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unknown row command {op!r}")


def _row_spaces(bank) -> list:
    """Per row allocator of a shard's bank: ``(its channels, its rows)``.

    The parent ledger mirrors exactly these free lists, so only banks
    whose allocators are known :class:`_RowBank` instances can shard.
    """
    if isinstance(bank, GroupedRegretBank):
        return [(list(g.channels), g.rows.rows) for g in bank._groups]
    if isinstance(bank, PerChannelGroupedBank):
        banks = bank.channel_views()
        if all(isinstance(b, _RowBank) for b in banks):
            return [([c], b.rows) for c, b in enumerate(banks)]
    raise RuntimeError(
        "sharded runs need a bank whose row allocators the parent ledger "
        "can mirror (a GroupedRegretBank, or a PerChannelGroupedBank over "
        f"the stock per-channel banks); got {type(bank).__name__}"
    )


def _pickle_bank_state(bank, offsets, rows, local) -> bytes:
    """Checkpoint the worker's full deterministic state.

    The bank's telemetry phase handles are process-local (they belong to
    the worker's registry); strip them around the pickle and re-bind on
    restore.
    """
    ph_act, ph_observe = bank._ph_act, bank._ph_observe
    bank._ph_act = bank._ph_observe = None
    try:
        return pickle.dumps(
            {"bank": bank, "offsets": offsets, "rows": rows, "local": local},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    finally:
        bank._ph_act, bank._ph_observe = ph_act, ph_observe


def _shard_worker(conn, build, checkpoint, handles, shard_index) -> None:
    """The worker main loop: strict request/reply over ``conn``.

    Runs in a forked child.  Exits via ``os._exit`` so the parent's
    inherited atexit handlers (shared-memory reapers included) never run
    here — the parent owns every shared backing.
    """
    try:
        if checkpoint is not None:
            state = pickle.loads(checkpoint)
            bank = state["bank"]
            tel = get_telemetry()
            bank._ph_act = tel.phase("bank.act")
            bank._ph_observe = tel.phase("bank.observe")
            offsets = state["offsets"]
            rows = state["rows"]
            local = state["local"]
        else:
            bank = build()
            offsets = rows = local = None
        lanes = _open_lanes(handles)
        conn.send(("hello", _row_spaces(bank)))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "act":
                _, n, commands, offsets_list = msg
                _apply_commands(bank, commands)
                offsets = np.asarray(offsets_list, dtype=np.int64)
                rows = lanes["rows"][:n]
                local = bank.act_all(offsets, rows)
                lanes["actions"][:n] = local
                conn.send(("ok",))
            elif kind == "observe":
                n = msg[1]
                bank.observe_all(offsets, rows, local, lanes["utilities"][:n])
                conn.send(("ok",))
            elif kind == "buffers":
                lanes = _open_lanes(msg[1])
                conn.send(("ok",))
            elif kind == "checkpoint":
                conn.send(
                    ("ok", _pickle_bank_state(bank, offsets, rows, local))
                )
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown shard message {kind!r}")
    except BaseException:
        try:
            conn.send(
                ("err", f"shard {shard_index}:\n{traceback.format_exc()}")
            )
        except Exception:  # pragma: no cover - parent already gone
            pass
        os._exit(1)
    os._exit(0)


# ----------------------------------------------------------------------
# Parent-side row ledger
# ----------------------------------------------------------------------


class _LedgerRows(_RowBank):
    """A :class:`_RowBank` free-list with no backing storage to grow."""

    def _grow_rows(self, new_rows: int) -> None:
        pass

    def _reset_rows(self, rows: np.ndarray) -> None:
        pass


class _ShardLedger:
    """Parent-side mirror of one shard bank's row allocators.

    Replays the identical free-list logic for every row space the worker
    reported at construction (see :func:`_row_spaces`), seeded with the
    reported initial capacities.  Row ids therefore come out of
    ``acquire``/``release`` with zero IPC; the worker asserts agreement
    when it replays each command.
    """

    def __init__(self, num_channels: int, spaces) -> None:
        owners = sorted(c for channels, _ in spaces for c in channels)
        if owners != list(range(num_channels)):
            raise RuntimeError(
                f"shard bank row spaces {spaces} do not partition its "
                f"{num_channels} channel(s)"
            )
        self._groups = [_LedgerRows(int(rows)) for _, rows in spaces]
        self._group_of = np.empty(num_channels, dtype=np.int64)
        for index, (channels, _) in enumerate(spaces):
            self._group_of[channels] = index

    def acquire(self, channel: int) -> int:
        return self._groups[self._group_of[channel]].acquire()

    def acquire_many(self, channel: int, count: int) -> np.ndarray:
        return self._groups[self._group_of[channel]].acquire_many(count)

    def release(self, channel: int, row: int) -> None:
        self._groups[self._group_of[channel]].release(row)


# ----------------------------------------------------------------------
# Parent-side bank facade
# ----------------------------------------------------------------------


def _entry_wire(entry):
    """The pipe message for a logged exchange (lane data travels shm)."""
    if entry[0] == "act":
        _, n, commands, offsets, _rows = entry
        return ("act", n, commands, offsets)
    return ("observe", entry[1])


def _shutdown(procs, conns, handle_dicts) -> None:
    """Best-effort teardown shared by ``close()`` and the finalizer."""
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        if proc is None:
            continue
        try:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        except Exception:
            pass
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.close()
        except Exception:
            pass
    for handles in handle_dicts:
        if not handles:
            continue
        for handle in handles.values():
            try:
                handle.cleanup()
            except Exception:
                pass


class _ShardedChannelView:
    """Introspection stub: sharded populations live out-of-process."""

    def __init__(self, bank: "ShardedGroupedBank", channel: int) -> None:
        self._bank = bank
        self.channel = int(channel)

    @property
    def num_actions(self) -> int:
        """The channel's helper count."""
        return self._bank.num_actions_of(self.channel)

    @property
    def population(self):
        raise RuntimeError(
            "sharded banks host their populations in worker processes; "
            "per-channel population introspection is only available on "
            "in-process systems"
        )


class ShardedGroupedBank:
    """The grouped-bank facade over a fleet of shard workers.

    Implements the :class:`~repro.runtime.grouped_bank.GroupedLearnerBank`
    protocol for the parent's round loop; channels are partitioned into
    ``shards`` contiguous ranges (``np.array_split`` over channel ids,
    so the channel-sorted row permutation slices per shard without a
    gather).  See the module docstring for the exchange protocol and the
    recovery story.
    """

    def __init__(
        self,
        arm_counts: Sequence[int],
        rngs: Sequence,
        bank_factory,
        shards: int,
        checkpoint_every: int = 64,
        heartbeat_timeout: float = 60.0,
        max_retries: int = 2,
        mp_context: str = "fork",
    ) -> None:
        num_channels = len(arm_counts)
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > num_channels:
            raise ValueError(
                f"shards must not exceed num_channels={num_channels}, "
                f"got {shards}"
            )
        if len(rngs) != num_channels:
            raise ValueError("need one child generator per channel")
        try:
            self._ctx = mp.get_context(mp_context)
        except ValueError as exc:
            raise RuntimeError(
                f"sharded runs need the {mp_context!r} multiprocessing "
                "start method (fork shares the bank factory and RNG "
                "streams with workers without pickling)"
            ) from exc
        self._arm_counts = [int(a) for a in arm_counts]
        # Sliced into the workers at fork; the parent must never draw
        # from these — their pristine state is what makes a
        # from-scratch respawn deterministic.
        self._rngs = list(rngs)
        self._bank_factory = bank_factory
        self._checkpoint_every = int(checkpoint_every)
        self._timeout = float(heartbeat_timeout)
        self._max_retries = int(max_retries)

        parts = np.array_split(np.arange(num_channels, dtype=np.int64), shards)
        self._bounds = [(int(p[0]), int(p[-1]) + 1) for p in parts]
        self._shard_of = np.empty(num_channels, dtype=np.int64)
        for s, (lo, hi) in enumerate(self._bounds):
            self._shard_of[lo:hi] = s
        self._num_shards = shards

        self._conns: List = [None] * shards
        self._procs: List = [None] * shards
        self._handles: List = [None] * shards
        self._lanes: List = [None] * shards
        self._caps = [0] * shards
        self._ledgers: List[Optional[_ShardLedger]] = [None] * shards
        self._pending: List[list] = [[] for _ in range(shards)]
        self._logs: List[list] = [[] for _ in range(shards)]
        self._checkpoints: List[Optional[bytes]] = [None] * shards
        self._attempts = [0] * shards
        self._rounds_since_checkpoint = 0
        self._closed = False

        tel = get_telemetry()
        self._ph_act = tel.phase("bank.act")
        self._ph_observe = tel.phase("bank.observe")
        self._ph_shard_act = [
            tel.phase(f"bank.shard{s}.act") for s in range(shards)
        ]
        self._ph_shard_observe = [
            tel.phase(f"bank.shard{s}.observe") for s in range(shards)
        ]
        self._ctr_respawns = tel.counter("bank.shard_respawns")

        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns, self._handles
        )
        try:
            for s in range(shards):
                self._grow_lanes(s, _INITIAL_LANE_ROWS)
                report = self._spawn(s)
                lo, hi = self._bounds[s]
                self._ledgers[s] = _ShardLedger(hi - lo, report)
        except BaseException:
            self.close()
            raise
        logger.debug(
            "sharded bank up: C=%d shards=%d bounds=%s",
            num_channels, shards, self._bounds,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self._arm_counts)

    @property
    def num_shards(self) -> int:
        """Worker processes hosting the banks."""
        return self._num_shards

    @property
    def shard_pids(self) -> List[int]:
        """Worker pids, in shard order (fault-injection tests kill these)."""
        return [proc.pid for proc in self._procs]

    @property
    def shard_bounds(self) -> List[tuple]:
        """Per shard: its contiguous ``[lo, hi)`` channel range."""
        return list(self._bounds)

    def num_actions_of(self, channel: int) -> int:
        return self._arm_counts[channel]

    def channel_views(self) -> List[_ShardedChannelView]:
        return [
            _ShardedChannelView(self, c) for c in range(len(self._arm_counts))
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, s: int):
        """Fork one worker; returns its hello report (its row spaces)."""
        lo, hi = self._bounds[s]
        widths = self._arm_counts[lo:hi]
        rngs = self._rngs[lo:hi]
        make = self._bank_factory

        def build():
            return make(widths, rngs)

        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                child_conn, build, self._checkpoints[s],
                dict(self._handles[s]), s,
            ),
            daemon=True,
            name=f"repro-shard-{s}",
        )
        proc.start()
        child_conn.close()
        self._conns[s] = parent_conn
        self._procs[s] = proc
        msg = self._recv(s, timeout=_HELLO_TIMEOUT_S)
        if msg[0] != "hello":  # pragma: no cover - protocol bug
            raise RuntimeError(f"shard {s} greeted with {msg[0]!r}")
        return msg[1]

    def _send(self, s: int, msg) -> None:
        try:
            self._conns[s].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise _ShardDead(f"shard {s} pipe closed on send: {exc!r}")

    def _recv(self, s: int, timeout: Optional[float] = None):
        """One barrier wait; every reply doubles as a heartbeat."""
        conn, proc = self._conns[s], self._procs[s]
        deadline = time.monotonic() + (
            self._timeout if timeout is None else timeout
        )
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _ShardDead(
                    f"shard {s} missed its heartbeat deadline "
                    f"({self._timeout:.1f}s)"
                )
            try:
                if conn.poll(min(_POLL_TICK_S, remaining)):
                    msg = conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise _ShardDead(f"shard {s} connection lost: {exc!r}")
            if not proc.is_alive():
                raise _ShardDead(
                    f"shard {s} died (exit code {proc.exitcode})"
                )
        if msg[0] == "err":
            # A worker exception is deterministic (the replay would hit
            # it again): surface it instead of burning retries.
            raise RuntimeError(f"shard worker failed:\n{msg[1]}")
        return msg

    def _reap(self, s: int) -> None:
        proc, conn = self._procs[s], self._conns[s]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _respawn(self, s: int, cause: str = "") -> None:
        """Rebuild a dead shard and replay its log (bit-identical state).

        On return the shard has re-applied every exchange since its last
        checkpoint — including whichever operation the caller was in the
        middle of (it is always the newest log entry) — so the caller
        simply skips its own barrier wait.
        """
        while True:
            self._attempts[s] += 1
            self._ctr_respawns.inc()
            if self._attempts[s] > self._max_retries:
                raise RuntimeError(
                    f"shard {s} died and exhausted its {self._max_retries} "
                    f"retries: {cause}"
                )
            self._reap(s)
            logger.warning(
                "shard %d lost (%s); respawning (attempt %d/%d), "
                "replaying %d exchange(s)%s",
                s, cause, self._attempts[s], self._max_retries,
                len(self._logs[s]),
                " from checkpoint" if self._checkpoints[s] else "",
            )
            try:
                self._spawn(s)
                for entry in self._logs[s]:
                    self._write_lanes(s, entry)
                    self._send(s, _entry_wire(entry))
                    self._recv(s)
            except _ShardDead as exc:
                cause = str(exc)
                continue
            return

    # ------------------------------------------------------------------
    # Exchange lanes
    # ------------------------------------------------------------------

    def _grow_lanes(self, s: int, need: int) -> None:
        """Ensure the shard's shared lanes hold ``need`` rows (doubling)."""
        cap = max(_INITIAL_LANE_ROWS, self._caps[s])
        while cap < need:
            cap *= 2
        if self._handles[s] is not None and cap == self._caps[s]:
            return
        old = self._handles[s]
        handles = {
            "rows": share_array(np.zeros(cap, dtype=np.int64)),
            "actions": share_array(np.zeros(cap, dtype=np.int64)),
            "utilities": share_array(np.zeros(cap, dtype=np.float64)),
        }
        self._handles[s] = handles
        self._lanes[s] = {
            "rows": handles["rows"].load(writable=True),
            "utilities": handles["utilities"].load(writable=True),
            "actions": handles["actions"].load(),
        }
        self._caps[s] = cap
        if old is not None:
            try:
                self._send(s, ("buffers", dict(handles)))
                self._recv(s)
            except _ShardDead as exc:
                # The respawn ships the new handles as worker args.
                self._respawn(s, cause=str(exc))
            for handle in old.values():
                handle.cleanup()

    def _write_lanes(self, s: int, entry) -> None:
        if entry[0] == "act":
            n, rows = entry[1], entry[4]
            self._lanes[s]["rows"][:n] = rows
        else:
            n, utilities = entry[1], entry[2]
            self._lanes[s]["utilities"][:n] = utilities

    def _dispatch(self, s: int, entry) -> bool:
        """Start one exchange; ``False`` = a respawn already finished it."""
        try:
            self._write_lanes(s, entry)
            self._send(s, _entry_wire(entry))
            return True
        except _ShardDead as exc:
            self._respawn(s, cause=str(exc))
            return False

    def _finish(self, s: int, in_flight: bool) -> None:
        """Collect one exchange's barrier ack (or recover the shard)."""
        if not in_flight:
            return
        try:
            self._recv(s)
        except _ShardDead as exc:
            self._respawn(s, cause=str(exc))

    # ------------------------------------------------------------------
    # Row lifecycle (parent ledger + queued commands)
    # ------------------------------------------------------------------

    def _locate(self, channel: int):
        channel = int(channel)
        s = int(self._shard_of[channel])
        return s, channel - self._bounds[s][0]

    def acquire(self, channel: int) -> int:
        s, local_channel = self._locate(channel)
        row = int(self._ledgers[s].acquire(local_channel))
        self._pending[s].append(("acquire", local_channel, row))
        return row

    def acquire_many(self, channel: int, count: int) -> np.ndarray:
        s, local_channel = self._locate(channel)
        rows = self._ledgers[s].acquire_many(local_channel, int(count))
        self._pending[s].append(
            ("acquire_many", local_channel, int(count), rows.copy())
        )
        return rows

    def release(self, channel: int, row: int) -> None:
        s, local_channel = self._locate(channel)
        self._ledgers[s].release(local_channel, int(row))
        self._pending[s].append(("release", local_channel, int(row)))

    # ------------------------------------------------------------------
    # The two fused calls
    # ------------------------------------------------------------------

    def act_all(self, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t0 = self._ph_act.start()
        local = np.empty(int(offsets[-1]), dtype=np.int64)
        spans = []
        in_flight = []
        for s, (lo, hi) in enumerate(self._bounds):
            start, stop = int(offsets[lo]), int(offsets[hi])
            n = stop - start
            spans.append((start, stop))
            self._grow_lanes(s, n)
            local_offsets = [int(o) - start for o in offsets[lo:hi + 1]]
            entry = (
                "act", n, self._pending[s], local_offsets,
                np.array(rows[start:stop], dtype=np.int64),
            )
            self._pending[s] = []
            self._logs[s].append(entry)
            in_flight.append(self._dispatch(s, entry))
        for s, (start, stop) in enumerate(spans):
            ts = self._ph_shard_act[s].start()
            self._finish(s, in_flight[s])
            self._ph_shard_act[s].stop(ts)
            local[start:stop] = self._lanes[s]["actions"][:stop - start]
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
        in_flight = []
        for s, (lo, hi) in enumerate(self._bounds):
            start, stop = int(offsets[lo]), int(offsets[hi])
            entry = (
                "observe", stop - start,
                np.array(utilities[start:stop], dtype=np.float64),
            )
            self._logs[s].append(entry)
            in_flight.append(self._dispatch(s, entry))
        for s in range(self._num_shards):
            ts = self._ph_shard_observe[s].start()
            self._finish(s, in_flight[s])
            self._ph_shard_observe[s].stop(ts)
        self._ph_observe.stop(t0)
        self._rounds_since_checkpoint += 1
        if (
            self._checkpoint_every
            and self._rounds_since_checkpoint >= self._checkpoint_every
        ):
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Snapshot every shard's state; truncate the replay logs."""
        for s in range(self._num_shards):
            try:
                self._send(s, ("checkpoint",))
                msg = self._recv(s)
            except _ShardDead as exc:
                # The shard was rebuilt with its old log intact; its
                # next cadence retries the snapshot.
                self._respawn(s, cause=str(exc))
                continue
            self._checkpoints[s] = msg[1]
            self._logs[s] = []
        self._rounds_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and release the shared lanes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()


class _ShardedFactory:
    """Bank factory handing :class:`VectorizedStreamingSystem` a sharded bank.

    Builds the :class:`ShardedGroupedBank` around the wrapped factory,
    which each worker invokes on its channel slice to build its real
    bank; keeps the built bank so a failed system construction can stop
    its workers.
    """

    def __init__(self, base, shards: int, options: dict) -> None:
        self._base = base
        self._shards = int(shards)
        self._options = dict(options)
        self.built: Optional[ShardedGroupedBank] = None

    def __call__(self, arm_counts, rngs) -> ShardedGroupedBank:
        self.built = ShardedGroupedBank(
            arm_counts, rngs, self._base, self._shards, **self._options
        )
        return self.built


class ShardedSystem(VectorizedStreamingSystem):
    """A :class:`VectorizedStreamingSystem` whose banks live in workers.

    Same constructor surface plus ``shards`` and the containment knobs;
    traces are bit-identical to the single-process system for any shard
    count (asserted in ``tests/runtime/test_sharded.py``).  Workers hold
    OS resources: call :meth:`close` when done (or use the system as a
    context manager); a garbage-collection finalizer backstops leaks.

    Parameters
    ----------
    shards:
        Worker processes to partition the channels across (1 <= shards
        <= num_channels).
    checkpoint_every:
        Rounds between worker state snapshots (bounds the replay log a
        shard death re-executes); ``0`` disables checkpointing and
        replays from construction.
    heartbeat_timeout:
        Seconds a barrier wait may stall before the shard is declared
        dead and rebuilt.
    max_retries:
        Rebuilds allowed per shard before the run fails.
    """

    def __init__(
        self,
        config,
        bank_factory,
        shards: int,
        rng=None,
        capacity_process=None,
        initial_channels: Optional[Sequence[int]] = None,
        capacity_backend: str = "vectorized",
        dtype=np.float64,
        checkpoint_every: int = 64,
        heartbeat_timeout: float = 60.0,
        max_retries: int = 2,
    ) -> None:
        factory = _ShardedFactory(
            bank_factory,
            shards,
            {
                "checkpoint_every": checkpoint_every,
                "heartbeat_timeout": heartbeat_timeout,
                "max_retries": max_retries,
            },
        )
        try:
            super().__init__(
                config,
                factory,
                rng=rng,
                capacity_process=capacity_process,
                initial_channels=initial_channels,
                capacity_backend=capacity_backend,
                dtype=dtype,
            )
        except BaseException:
            if factory.built is not None:
                factory.built.close()
            raise

    @property
    def num_shards(self) -> int:
        """Worker processes hosting the learner banks."""
        return self.bank.num_shards

    @property
    def shard_pids(self) -> List[int]:
        """Worker pids, in shard order."""
        return self.bank.shard_pids

    def close(self) -> None:
        """Stop the shard workers and release shared memory (idempotent)."""
        self.bank.close()

    def __enter__(self) -> "ShardedSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
