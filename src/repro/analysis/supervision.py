"""Supervised sweep execution: one worker process per cell, watched.

:class:`~repro.analysis.parallel.ParallelRunner` delegates here whenever
a sweep fans out over more than one worker or asks for fault tolerance
(a non-default :class:`~repro.spec.ExecutionSpec`); this is the only
module that runs cells in other processes.  A crashed worker is an
event, not a hang:

* every cell runs in its own short-lived worker process, so one cell's
  death, hang, or memory blow-up cannot take siblings down with it;
* workers emit heartbeats; a worker silent for ~4 intervals (SIGSTOP, a
  wedged host) is killed and its cell retried;
* each attempt has a wall-clock budget (``cell_timeout``) — the escape
  hatch for cells that hang while their heartbeat thread keeps beating;
* death/timeout/hang retries with exponential backoff plus
  deterministic, seed-derived jitter, bounded by ``max_retries``.  The
  cell's derived seed rides in the payload, so a retried cell is
  bit-identical to a first-try cell regardless of where or when it
  lands.  Cell *exceptions* are deterministic in (params, seed) and are
  therefore terminal immediately — retrying would reproduce them;
* each result travels home pickled through its worker's private pipe,
  so a dead worker leaves nothing behind for anyone to reclaim;
* results commit to the store as they arrive (when one is attached), so
  a sweep killed mid-flight resumes with every finished cell a cache
  hit.

Cells that exhaust their retries become structured
:class:`SweepFailure` records (attempt history included).  Under
``on_failure="record"`` the sweep completes around the holes; under
``"raise"`` a :class:`SweepError` carrying the first record is raised —
after every other cell has finished and released its resources.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.telemetry import get_telemetry
from repro.util.logconfig import get_logger

logger = get_logger("analysis")

#: A worker is presumed frozen after this many missed heartbeat
#: intervals (floored at :data:`HEARTBEAT_FLOOR_S` to survive slow
#: process starts).
HEARTBEAT_MISSES = 4
HEARTBEAT_FLOOR_S = 1.0

#: Supervisor loop tick: the queue-drain timeout bounding how stale the
#: liveness checks can get.
_TICK_S = 0.05

#: Seconds a dead worker's pipe reader may take to reach EOF before the
#: attempt counts as a crash anyway (a grandchild that inherited the
#: pipe's write end would otherwise hold it open indefinitely).
_EOF_GRACE_S = 5.0


@dataclass
class CellAttempt:
    """One try at one cell, as recorded in the failure history."""

    attempt: int
    outcome: str  # "ok" | "crash" | "timeout" | "hung" | "error"
    elapsed_s: float
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "elapsed_s": self.elapsed_s,
            "detail": self.detail,
        }


@dataclass
class SweepFailure:
    """A cell that failed beyond recovery, as structured data.

    Carries everything needed to re-run or triage the cell by hand: the
    submission index, the parameter overrides, the derived seed (re-run
    with exactly this seed to reproduce), the owning spec digest when
    known, and the per-attempt history the supervisor observed.
    """

    cell_index: int
    params: Dict[str, Any]
    seed: Optional[int] = None
    spec_digest: Optional[str] = None
    attempts: List[CellAttempt] = field(default_factory=list)
    traceback: str = ""

    def describe(self) -> str:
        """One line naming the failed cell (the CLI's error format)."""
        where = f"sweep cell {self.cell_index} failed"
        if self.attempts:
            where += f" after {len(self.attempts)} attempt(s)"
            where += f" ({self.attempts[-1].outcome})"
        if self.spec_digest:
            where += f" [spec {self.spec_digest}]"
        if self.params:
            where += f" (params {self.params})"
        return where

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_index": self.cell_index,
            "params": dict(self.params),
            "seed": self.seed,
            "spec_digest": self.spec_digest,
            "attempts": [a.to_dict() for a in self.attempts],
            "traceback": self.traceback,
        }


class SweepError(RuntimeError):
    """A sweep aborted by an unrecoverable cell failure.

    Subclasses :class:`RuntimeError` (the historical raise type) and
    carries the structured :attr:`failure` so callers — notably the CLI
    — can report one precise line instead of a worker traceback dump.
    """

    def __init__(self, failure: SweepFailure) -> None:
        message = failure.describe()
        if failure.traceback:
            message += ":\n" + failure.traceback
        super().__init__(message)
        self.failure = failure


def _heartbeat_loop(send, index, attempt, interval, stop) -> None:
    while not stop.wait(interval):
        try:
            send(("hb", index, attempt, None))
        except Exception:  # parent gone; nothing left to tell
            return


def _supervised_worker(conn, payload, heartbeat_interval) -> None:
    """Worker-process entry: run one cell, ship the result, beat while at it.

    The protocol back to the supervisor (this worker's *private* pipe,
    message tuples ``(kind, index, attempt, data)``): optional ``hb``
    beats, then exactly one of ``ok`` (the metrics) or ``err`` (the
    formatted traceback).  Each worker owns its pipe end exclusively —
    the supervisor can SIGKILL a wedged worker without poisoning a lock
    its siblings share (the failure mode of a single ``mp.Queue``); a
    killed-mid-send pipe just reads as EOF.
    """
    index, attempt, fn, params, seed = payload
    send_lock = threading.Lock()

    def send(message):
        with send_lock:  # heartbeat thread and main thread share the pipe
            conn.send(message)

    stop = threading.Event()
    if heartbeat_interval and heartbeat_interval > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(send, index, attempt, heartbeat_interval, stop),
            daemon=True,
        ).start()
    try:
        metrics = dict(fn(params, seed))
        stop.set()
        # A result that does not pickle fails here, before any byte is
        # written, and is reported below like any other cell error.
        send(("ok", index, attempt, metrics))
    except BaseException:
        stop.set()
        try:
            send(("err", index, attempt, traceback.format_exc()))
        except Exception:
            pass


def _pipe_reader(conn, out_queue) -> None:
    """Parent-side reader thread: one per worker pipe.

    Forwards every message into the supervisor's (thread-)queue and
    exits on EOF/OSError — which is exactly what a crashed, killed, or
    cleanly finished worker's pipe produces.  Keeping the blocking
    ``recv`` off the supervisor loop means a worker frozen mid-send
    (SIGSTOP) stalls only this thread; the supervisor still notices the
    stale heartbeat and kills the worker, which unblocks the recv with
    EOF.
    """
    try:
        while True:
            out_queue.put(conn.recv())
    except (EOFError, OSError):
        pass
    except Exception:  # pragma: no cover - unpickling garbage
        pass
    finally:
        # Only this thread reads the pipe, so only it may close it.  A
        # close from the supervisor could free the descriptor number
        # while this thread is between reads; the next worker's pipe
        # would reuse it, and this thread would steal that worker's
        # messages.
        conn.close()


@dataclass
class _Cell:
    """Supervisor-side state of one cell across its attempts."""

    index: int
    fn: Any
    params: Dict[str, Any]
    seed: int
    tries: int = 0
    attempts: List[CellAttempt] = field(default_factory=list)
    proc: Any = None
    reader: Any = None
    exited: Optional[float] = None
    started: float = 0.0
    last_beat: float = 0.0


class Supervisor:
    """Fault-tolerant fan-out of cells over per-cell worker processes.

    One instance runs one sweep (:meth:`run`); construction binds the
    policy (an :class:`~repro.spec.ExecutionSpec`-shaped object), the
    worker budget, and optionally a results store plus the spec digest
    that keys it.
    """

    def __init__(
        self,
        workers: int,
        execution,
        store=None,
        spec_digest: Optional[str] = None,
    ) -> None:
        self._workers = max(1, int(workers))
        self._execution = execution
        self._store = store
        self._spec_digest = spec_digest
        tel = get_telemetry()
        self._ctr_retries = tel.counter("sweep.retries")
        self._ctr_failed = tel.counter("sweep.cells_failed")
        self._ctr_commits = tel.counter("sweep.store_commits")
        self.stats: Dict[str, int] = {
            "retries": 0,
            "crashes": 0,
            "timeouts": 0,
            "hangs": 0,
            "errors": 0,
            "failed": 0,
            "completed": 0,
            "committed": 0,
        }

    # ------------------------------------------------------------------

    def run(
        self, payloads
    ) -> Tuple[Dict[int, Mapping[str, Any]], Dict[int, SweepFailure]]:
        """Execute payloads ``(fn, params, seed, index)``; supervise all.

        Returns ``(results, failures)`` keyed by submission index; every
        payload lands in exactly one of the two.
        """
        cells = [
            _Cell(index=index, fn=fn, params=dict(params), seed=seed)
            for (fn, params, seed, index) in payloads
        ]
        self._heartbeat = float(self._execution.heartbeat_interval)
        # A plain thread queue: per-worker pipe reader threads feed it,
        # so no lock is ever shared with a process we might kill.
        self._queue = queue_module.Queue()
        self._pending = deque(cells)
        self._waiting: List[Tuple[float, _Cell]] = []
        self._inflight: Dict[int, _Cell] = {}
        self._results: Dict[int, Mapping[str, Any]] = {}
        self._failures: Dict[int, SweepFailure] = {}
        while self._pending or self._waiting or self._inflight:
            self._promote_waiting()
            self._dispatch()
            self._drain(block=True)
            self._check_inflight()
        return self._results, self._failures

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _promote_waiting(self) -> None:
        now = time.monotonic()
        ready = [entry for entry in self._waiting if entry[0] <= now]
        for entry in ready:
            self._waiting.remove(entry)
            self._pending.append(entry[1])

    def _dispatch(self) -> None:
        while self._pending and len(self._inflight) < self._workers:
            cell = self._pending.popleft()
            cell.tries += 1
            payload = (cell.index, cell.tries, cell.fn, cell.params, cell.seed)
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_supervised_worker,
                args=(child_conn, payload, self._heartbeat),
            )
            proc.start()
            child_conn.close()  # parent keeps only the read end
            cell.reader = threading.Thread(
                target=_pipe_reader,
                args=(parent_conn, self._queue),
                daemon=True,
            )
            cell.reader.start()
            cell.proc = proc
            cell.exited = None
            cell.started = cell.last_beat = time.monotonic()
            self._inflight[cell.index] = cell
            logger.debug(
                "dispatched cell %d attempt %d (pid %s)",
                cell.index, cell.tries, proc.pid,
            )

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------

    def _drain(self, block: bool) -> None:
        try:
            message = self._queue.get(timeout=_TICK_S if block else 0)
        except queue_module.Empty:
            return
        while True:
            self._handle(message)
            try:
                message = self._queue.get_nowait()
            except queue_module.Empty:
                return

    def _handle(self, message) -> None:
        kind, index, attempt, data = message
        cell = self._inflight.get(index)
        if kind == "hb":
            if cell is not None and cell.tries == attempt:
                cell.last_beat = time.monotonic()
        elif kind == "ok":
            self._accept(index, data)
        elif kind == "err":
            self._cell_error(index, attempt, data)

    def _accept(self, index: int, metrics) -> None:
        if index in self._results or index in self._failures:
            return  # a duplicate from a racing attempt: identical, dropped
        cell = self._find(index)
        self._results[index] = metrics
        self.stats["completed"] += 1
        if cell is not None:
            # A result from an older attempt may land while a newer one
            # runs (deterministic cells make them identical): kill the
            # straggler.
            self._retire(cell)
            self._commit(cell, metrics)

    def _commit(self, cell: _Cell, metrics) -> None:
        if self._store is None:
            return
        from repro.store import cell_digest

        try:
            if self._store.put(
                self._spec_digest,
                cell_digest(cell.params, cell.seed),
                metrics,
                params=cell.params,
                seed=cell.seed,
            ):
                self.stats["committed"] += 1
                self._ctr_commits.inc()
        except Exception as exc:
            # Durability is best-effort on top of a completed result; a
            # full disk must not fail the sweep itself.
            logger.warning(
                "store commit failed for cell %d: %s", cell.index, exc
            )

    def _cell_error(self, index: int, attempt: int, formatted: str) -> None:
        cell = self._inflight.get(index)
        if (
            cell is None
            or cell.tries != attempt  # stale: from an attempt already killed
            or index in self._results
            or index in self._failures
        ):
            return
        # Exceptions are deterministic in (params, seed): retrying would
        # reproduce them, so they are terminal on the first occurrence.
        elapsed = time.monotonic() - cell.started if cell.started else 0.0
        cell.attempts.append(
            CellAttempt(attempt, "error", elapsed, _first_line(formatted))
        )
        self.stats["errors"] += 1
        self._fail(cell, formatted)
        self._retire(cell)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _check_inflight(self) -> None:
        now = time.monotonic()
        execution = self._execution
        stale_after = None
        if self._heartbeat > 0:
            stale_after = max(
                HEARTBEAT_MISSES * self._heartbeat, HEARTBEAT_FLOOR_S
            )
        for cell in list(self._inflight.values()):
            if cell.index not in self._inflight or cell.proc is None:
                continue  # retired by a drain earlier in this pass
            if not cell.proc.is_alive():
                # The worker's final "ok"/"err" may still be on its way
                # through the reader thread.  Declare a crash only once
                # that thread has hit EOF with nothing delivered — without
                # blocking the loop, and bounded by _EOF_GRACE_S.
                if cell.exited is None:
                    cell.exited = now
                if cell.reader.is_alive() and now - cell.exited < _EOF_GRACE_S:
                    continue
                self._drain(block=False)
                if cell.index not in self._inflight:
                    continue
                if (
                    cell.index in self._results
                    or cell.index in self._failures
                ):
                    self._retire(cell)
                    continue
                self.stats["crashes"] += 1
                self._attempt_over(
                    cell, "crash", f"worker died (exit code {cell.proc.exitcode})"
                )
            elif (
                execution.cell_timeout is not None
                and now - cell.started > execution.cell_timeout
            ):
                self.stats["timeouts"] += 1
                self._attempt_over(
                    cell,
                    "timeout",
                    f"attempt exceeded cell_timeout={execution.cell_timeout}s",
                )
            elif stale_after is not None and now - cell.last_beat > stale_after:
                self.stats["hangs"] += 1
                self._attempt_over(
                    cell,
                    "hung",
                    f"no heartbeat for {now - cell.last_beat:.2f}s "
                    f"(interval {self._heartbeat}s)",
                )

    def _attempt_over(self, cell: _Cell, outcome: str, detail: str) -> None:
        """A live attempt failed: retire, record, and retry or give up."""
        self._retire(cell)
        elapsed = time.monotonic() - cell.started if cell.started else 0.0
        cell.attempts.append(CellAttempt(cell.tries, outcome, elapsed, detail))
        logger.warning(
            "cell %d attempt %d %s: %s", cell.index, cell.tries, outcome, detail
        )
        if cell.tries <= self._execution.max_retries:
            delay = self._execution.retry_delay(cell.seed, cell.tries)
            self._waiting.append((time.monotonic() + delay, cell))
            self.stats["retries"] += 1
            self._ctr_retries.inc()
            logger.info(
                "retrying cell %d (attempt %d/%d) in %.2fs",
                cell.index, cell.tries + 1,
                self._execution.max_retries + 1, delay,
            )
        else:
            self._fail(cell, detail)

    def _fail(self, cell: _Cell, traceback_text: str) -> None:
        self._failures[cell.index] = SweepFailure(
            cell_index=cell.index,
            params=dict(cell.params),
            seed=cell.seed,
            spec_digest=self._spec_digest,
            attempts=list(cell.attempts),
            traceback=traceback_text,
        )
        self.stats["failed"] += 1
        self._ctr_failed.inc()
        logger.error("%s", self._failures[cell.index].describe())

    def _retire(self, cell: _Cell) -> None:
        """Remove from inflight and make sure the process is gone."""
        self._inflight.pop(cell.index, None)
        proc = cell.proc
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(0.5)
            if proc.is_alive():  # SIGTERM ignored or process stopped
                proc.kill()
                proc.join(5.0)
        else:
            proc.join(0.1)
        cell.proc = None

    # ------------------------------------------------------------------

    def _find(self, index: int) -> Optional[_Cell]:
        cell = self._inflight.get(index)
        if cell is not None:
            return cell
        for _, waiting_cell in self._waiting:
            if waiting_cell.index == index:
                self._waiting = [
                    w for w in self._waiting if w[1].index != index
                ]
                return waiting_cell
        for pending_cell in self._pending:
            if pending_cell.index == index:
                self._pending.remove(pending_cell)
                return pending_cell
        return None


def _first_line(text: str) -> str:
    lines = [line for line in str(text).strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""
