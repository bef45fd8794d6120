"""Parallel experiment executor.

Sweeps and replication studies are embarrassingly parallel: every cell is
an independent simulation distinguished only by its parameters and seed.
:class:`ParallelRunner` fans cells across processes with
:mod:`multiprocessing` while keeping results **deterministic**: per-cell
seeds are drawn from the parent generator with
:func:`~repro.util.rng.derive_seed` *in submission order*, before any work
is dispatched, so the same parent seed yields the same per-cell seeds — and
therefore the same results — whether the sweep runs on 1 worker or 64.

Cell functions must be picklable (module-level functions, or
:func:`functools.partial` over one); the CLI's ``repro run`` command and
:func:`repro.analysis.sweeps.sweep_learner_parameters` both route through
this runner.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import tempfile
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.sweeps import SweepCell, SweepResult
from repro.util.logconfig import get_logger
from repro.util.rng import Seedish, as_generator, derive_seed

logger = get_logger("analysis")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.spec.model import SweepSpec

#: A cell evaluator: ``(parameters, seed) -> {metric_name: value}``.
CellFunction = Callable[[Mapping[str, object], int], Mapping[str, float]]

#: Handoff modes accepted by :func:`share_array`.
SHARE_MODES = ("auto", "shm", "file", "inline")

#: Result arrays at or above this size leave workers through
#: :func:`share_array` instead of riding in the pickled result payload.
#: Below it, a segment/file round-trip costs more than the pickle.
RESULT_SHARE_MIN_BYTES = 8192


class SharedArrayHandle:
    """A cheap-to-pickle reference to a read-only array shared with workers.

    Fanning a sweep across processes used to serialize the recorded
    ``(T, H)`` capacity trace into *every* cell payload — O(cells × T × H)
    pickling for data that is identical everywhere.  A handle carries only
    placement metadata (a :mod:`multiprocessing.shared_memory` segment
    name, or an on-disk ``.npy`` path); workers re-materialize the array
    zero-copy with :meth:`load`.

    The creating process owns the backing storage: call :meth:`cleanup`
    (or use the handle as a context manager) once the sweep is done.
    Arrays returned by :meth:`load` are views into the shared backing and
    stay valid as long as the handle they came from is alive; treat them
    as read-only.
    """

    def __init__(self, mode: str, shape, dtype: str, *, shm_name=None,
                 path=None, array=None) -> None:
        self._mode = mode
        self._shape = tuple(shape)
        self._dtype = str(dtype)
        self._shm_name = shm_name
        self._path = path
        self._array = array
        self._owner = True
        self._attached = None

    @property
    def mode(self) -> str:
        """Placement: ``"shm"``, ``"file"`` or ``"inline"``."""
        return self._mode

    @property
    def shape(self) -> tuple:
        """Shape of the shared array."""
        return self._shape

    def __getstate__(self):
        return {
            "mode": self._mode,
            "shape": self._shape,
            "dtype": self._dtype,
            "shm_name": self._shm_name,
            "path": self._path,
            "array": self._array if self._mode == "inline" else None,
        }

    def __setstate__(self, state):
        self.__init__(
            state["mode"], state["shape"], state["dtype"],
            shm_name=state["shm_name"], path=state["path"],
            array=state["array"],
        )
        self._owner = False  # unpickled copies must never unlink

    def load(self, writable: bool = False) -> np.ndarray:
        """Materialize the array (zero-copy for shm/file placements).

        By default the result is marked read-only in every mode: the
        backing is shared across cells (and, for shm, across processes),
        so an in-place mutation would corrupt every other consumer
        silently.  ``writable=True`` opts into a mutable view for
        deliberate cross-process exchange buffers (the sharded runtime's
        per-round row/action/utility lanes); it requires a shared
        backing, so ``"inline"`` handles reject it.
        """
        if self._mode == "inline":
            if writable:
                raise ValueError(
                    "inline handles have no shared backing to write to; "
                    "use mode='shm' or 'file'"
                )
            view = self._array.view()
            view.flags.writeable = False
            return view
        if self._mode == "file":
            return np.load(self._path, mmap_mode="r+" if writable else "r")
        if self._attached is None:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=self._shm_name)
            if not self._owner:
                # Attaching registers the segment with this process's
                # resource tracker, which would try to unlink it again at
                # exit (the creator already owns cleanup).  Deregister;
                # private API, so best-effort.
                try:  # pragma: no cover - tracker layout varies
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
            self._attached = shm
        view = np.ndarray(
            self._shape, dtype=np.dtype(self._dtype), buffer=self._attached.buf
        )
        view.flags.writeable = bool(writable)
        return view

    def close(self) -> None:
        """Drop this process's attachment (keeps the backing alive)."""
        if self._attached is not None:
            self._attached.close()
            self._attached = None

    def disown(self) -> None:
        """Hand backing ownership to whoever unpickles this handle.

        The worker-side half of the *result* handoff: after placing a
        result array, the worker closes its attachment and (for shm)
        deregisters the segment from its resource tracker, so a worker
        exiting cannot reap storage the parent has yet to read.  After
        disowning, :meth:`cleanup` in this process never unlinks.
        """
        self._owner = False
        if self._mode == "shm" and self._attached is not None:
            try:  # pragma: no cover - tracker layout varies
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    self._attached._name, "shared_memory"
                )
            except Exception:
                pass
        self.close()

    def adopt(self) -> None:
        """Take over backing cleanup (the parent-side half of the result
        handoff); after adopting, :meth:`cleanup` releases the storage."""
        self._owner = True

    def cleanup(self) -> None:
        """Release the backing storage (owner side; idempotent)."""
        if self._mode == "shm":
            self.close()
            if self._owner and self._shm_name is not None:
                from multiprocessing import shared_memory

                try:
                    seg = shared_memory.SharedMemory(name=self._shm_name)
                except FileNotFoundError:
                    pass
                else:
                    seg.close()
                    seg.unlink()
                self._shm_name = None
        elif self._mode == "file":
            if self._owner and self._path is not None:
                try:
                    os.unlink(self._path)
                except FileNotFoundError:
                    pass
                self._path = None
        self._array = None

    def __enter__(self) -> "SharedArrayHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


def share_array(array: np.ndarray, mode: str = "auto") -> SharedArrayHandle:
    """Place ``array`` where worker processes can map it without pickling.

    ``mode``:

    * ``"shm"`` — a :mod:`multiprocessing.shared_memory` segment (fastest;
      lives in RAM/tmpfs);
    * ``"file"`` — an on-disk ``.npy`` workers memory-map (survives
      tmpfs-starved hosts and arbitrarily long traces);
    * ``"inline"`` — no sharing; the array rides inside each pickled
      payload (the pre-handoff behaviour, fine for tiny traces);
    * ``"auto"`` — ``"shm"`` when available, else ``"file"``.
    """
    arr = np.ascontiguousarray(array)
    if mode not in SHARE_MODES:
        raise ValueError(f"mode must be one of {SHARE_MODES}, got {mode!r}")
    if mode == "inline":
        return SharedArrayHandle(
            "inline", arr.shape, arr.dtype.str, array=arr
        )
    if mode in ("auto", "shm"):
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            handle = SharedArrayHandle(
                "shm", arr.shape, arr.dtype.str, shm_name=shm.name
            )
            handle._attached = shm
            return handle
        except (ImportError, OSError):
            if mode == "shm":
                raise
    fd, path = tempfile.mkstemp(suffix=".npy", prefix="repro-trace-")
    os.close(fd)
    np.save(path, arr)
    return SharedArrayHandle("file", arr.shape, arr.dtype.str, path=path)


def resolve_shared_array(obj) -> np.ndarray:
    """Accept a plain array or a :class:`SharedArrayHandle`; return the array."""
    if isinstance(obj, SharedArrayHandle):
        return obj.load()
    return np.asarray(obj)


#: Handles this process has disowned but not yet handed to a consumer.
#: A disowned handle has no owner anywhere until the receiving process
#: materializes it — if this process dies in that window, nobody would
#: ever unlink the backing.  The atexit reaper below reclaims whatever
#: is still registered here when the process exits.
_UNDELIVERED: Dict[int, "SharedArrayHandle"] = {}


def _reap_undelivered() -> int:
    """Reclaim disowned-but-undelivered shared backings; count reaped.

    Registered with :mod:`atexit` so a worker that errors out (or is
    torn down) between placing its result arrays and delivering them
    does not orphan shared-memory segments until reboot.  Safe to call
    any time: delivered handles are deregistered first, so this only
    ever touches storage no other process will read.
    """
    reaped = 0
    while _UNDELIVERED:
        _, handle = _UNDELIVERED.popitem()
        try:
            handle.adopt()
            handle.cleanup()
            reaped += 1
        except Exception:  # pragma: no cover - teardown best-effort
            pass
    return reaped


atexit.register(_reap_undelivered)


def _mark_results_delivered(metrics) -> None:
    """Deregister ``metrics``' handles from the undelivered-reaper set.

    Called once the result payload has left this process (pool return /
    queue put): from that point the consumer owns materialization and
    cleanup, and reaping here would destroy data in flight.
    """
    for value in metrics.values():
        if isinstance(value, SharedArrayHandle):
            _UNDELIVERED.pop(id(value), None)


def _share_result_metrics(metrics, mode: str):
    """Worker side: move large array metrics into shared placements.

    Scalar metrics pass through; any :class:`numpy.ndarray` of at least
    :data:`RESULT_SHARE_MIN_BYTES` is placed via :func:`share_array` and
    replaced by its disowned handle, so the result payload pickles as
    metadata only.  If a placement fails partway (shm/disk exhaustion),
    the handles already created are released before re-raising — nothing
    disowned is left without an owner.  Successfully placed handles are
    registered for the atexit reaper until
    :func:`_mark_results_delivered` confirms the handoff.
    """
    shared = {}
    try:
        for name, value in metrics.items():
            if (
                isinstance(value, np.ndarray)
                and value.nbytes >= RESULT_SHARE_MIN_BYTES
            ):
                handle = share_array(value, mode=mode)
                handle.disown()
                _UNDELIVERED[id(handle)] = handle
                shared[name] = handle
            else:
                shared[name] = value
    except BaseException:
        for value in shared.values():
            if isinstance(value, SharedArrayHandle):
                _UNDELIVERED.pop(id(value), None)
                value.adopt()
                value.cleanup()
        raise
    return shared


def _materialize_result_metrics(metrics):
    """Parent side: resolve result handles into owned arrays.

    Loads each handle (zero-copy), copies into parent-owned memory, then
    adopts and releases the worker-created backing — callers only ever
    see plain values.  The backing is released even when loading fails,
    so a corrupt cell cannot leak the segments of its siblings.
    """
    out = {}
    error: Optional[Exception] = None
    for name, value in metrics.items():
        if isinstance(value, SharedArrayHandle):
            try:
                out[name] = np.array(value.load())
            except Exception as exc:  # keep releasing the siblings
                error = error if error is not None else exc
            finally:
                value.adopt()
                value.cleanup()
        else:
            out[name] = value
    if error is not None:
        raise error
    return out


class _CellFailure:
    """A worker-side cell exception, shipped back as data.

    Raising straight out of ``pool.map`` would discard every sibling
    cell's result payload — and with it the only references to their
    disowned shared-memory segments, leaking them until reboot.  Instead
    the worker returns this marker; the parent materializes (and thereby
    releases) all successful cells first, then raises.  Carries the cell
    identity (submission index + parameter overrides) so a failure in a
    4000-cell sweep names the cell to re-run.
    """

    def __init__(
        self,
        formatted_traceback: str,
        cell_index: Optional[int] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.formatted_traceback = formatted_traceback
        self.cell_index = cell_index
        self.params = dict(params) if params is not None else None

    def describe(self) -> str:
        """One line naming the failed cell, for the raised error."""
        where = (
            "sweep cell failed in worker"
            if self.cell_index is None
            else f"sweep cell {self.cell_index} failed in worker"
        )
        if self.params:
            where += f" (params {self.params})"
        return where


def _invoke(payload):
    fn, params, seed, result_mode, index = payload
    if result_mode is None:
        return fn(params, seed)
    import traceback

    try:
        # Sharing stays inside the containment: a placement failure must
        # come back as data too, or pool.map would raise and strand every
        # sibling cell's disowned segments unmaterialized.
        shared = _share_result_metrics(fn(params, seed), result_mode)
    except Exception:
        return _CellFailure(traceback.format_exc(), index, params)
    # Returning into the pool machinery is the handoff: the parent
    # materializes from here on, so the worker's atexit reaper (which
    # fires when the pool tears down, possibly before the parent reads)
    # must no longer consider these segments undelivered.
    _mark_results_delivered(shared)
    return shared


def _invoke_contained(payload):
    """:func:`_invoke` with pool-equivalent error containment.

    Inline (1-worker) runs skip the sharing wrapper, so ``_invoke``
    raises instead of returning a :class:`_CellFailure`.  Containing the
    exception here keeps the failure contract identical across worker
    counts: every cell runs, and the caller gets one
    :class:`~repro.analysis.supervision.SweepError` naming the first
    failed cell.
    """
    import traceback

    try:
        return _invoke(payload)
    except Exception:
        _, params, _, _, index = payload
        return _CellFailure(traceback.format_exc(), index, params)


class ParallelRunner:
    """Deterministic fan-out of experiment cells over worker processes.

    Parameters
    ----------
    workers:
        Process count; ``None`` uses the machine's CPU count and ``1``
        runs inline (no subprocesses — the mode to use under debuggers
        and in tests).
    mp_context:
        Optional :func:`multiprocessing.get_context` method name
        (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` picks the
        platform default.
    result_handoff:
        Placement for large array-valued cell results coming *back* from
        workers (the mirror of the input-side trace handoff):
        ``"auto"`` (shared memory, falling back to on-disk ``.npy``),
        ``"shm"``, ``"file"``, or ``"inline"`` to pickle results into the
        payload like any scalar.  Inline (1-worker) runs never share.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        result_handoff: str = "auto",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if result_handoff not in SHARE_MODES:
            raise ValueError(
                f"result_handoff must be one of {SHARE_MODES}, "
                f"got {result_handoff!r}"
            )
        self._workers = int(workers)
        self._mp_context = mp_context
        self._result_handoff = result_handoff

    @property
    def workers(self) -> int:
        """Configured worker-process count."""
        return self._workers

    def map_cells(
        self,
        cell_fn: CellFunction,
        parameter_sets: Sequence[Mapping[str, object]],
        rng: Seedish = None,
        *,
        execution=None,
        store=None,
        spec_digest: Optional[str] = None,
        failures_out: Optional[list] = None,
    ) -> List[Optional[SweepCell]]:
        """Evaluate ``cell_fn`` on every parameter set; order preserved.

        Seeds are derived from ``rng`` in submission order, so results are
        independent of the worker count — and of retries: a cell's seed
        is fixed before any dispatch, so recomputing it (after a worker
        crash, or on resume from a store) is bit-identical.

        With an ``execution`` policy (an :class:`~repro.spec.ExecutionSpec`)
        that enables supervision, or with a ``store`` attached, cells run
        under :class:`~repro.analysis.supervision.Supervisor` — one
        process per cell, retries with backoff, and per-cell store
        commits.  ``store`` (a :class:`~repro.store.ResultsStore`) is
        consulted *before* dispatch: cached cells never reach a worker.
        Under ``on_failure="record"`` a cell that fails beyond recovery
        yields ``None`` in the returned list and its
        :class:`~repro.analysis.supervision.SweepFailure` is appended to
        ``failures_out`` (when given); under the default ``"raise"`` a
        :class:`~repro.analysis.supervision.SweepError` is raised after
        every other cell has been materialized.
        """
        parent = as_generator(rng)
        # Seeds are drawn for every cell up front, cache hits included —
        # consulting the store must not shift the RNG stream of the
        # cells that still need computing.
        seeds = [derive_seed(parent) for _ in parameter_sets]
        if execution is None:
            from repro.spec.model import ExecutionSpec

            execution = ExecutionSpec()
        if store is not None or execution.supervised:
            return self._map_cells_supervised(
                cell_fn, parameter_sets, seeds, execution,
                store, spec_digest, failures_out,
            )
        pooled = self._workers > 1 and len(parameter_sets) > 1
        result_mode = (
            self._result_handoff
            if pooled and self._result_handoff != "inline"
            else None
        )
        payloads = [
            (cell_fn, dict(params), seeds[i], result_mode, i)
            for i, params in enumerate(parameter_sets)
        ]
        logger.debug(
            "mapping %d cell(s) over %d worker(s) (handoff=%s)",
            len(payloads), self._workers, self._result_handoff,
        )
        if not pooled:
            results = self._run_inline(payloads)
        else:
            ctx = multiprocessing.get_context(self._mp_context)
            with ctx.Pool(min(self._workers, len(payloads))) as pool:
                results = pool.map(_invoke, payloads)
        # Materialize every successful cell BEFORE raising any failure:
        # materialization is also what releases the worker-created shared
        # backings, so an early raise would leak the siblings' segments.
        cells: List[Optional[SweepCell]] = []
        failure: Optional[_CellFailure] = None
        for (_, params, _, _, index), metrics in zip(payloads, results):
            if isinstance(metrics, _CellFailure):
                failure = failure if failure is not None else metrics
                cells.append(None)
                continue
            try:
                materialized = _materialize_result_metrics(dict(metrics))
            except Exception as exc:
                # A vanished backing (reaped shm segment / deleted .npy)
                # must not strand the remaining cells' segments.
                failure = failure if failure is not None else _CellFailure(
                    f"result materialization failed: {exc!r}", index, params
                )
                cells.append(None)
                continue
            cells.append(
                SweepCell(parameters=dict(params), metrics=materialized)
            )
        if failure is not None:
            from repro.analysis.supervision import SweepError, SweepFailure

            logger.error("%s", failure.describe())
            raise SweepError(
                SweepFailure(
                    cell_index=(
                        failure.cell_index
                        if failure.cell_index is not None
                        else -1
                    ),
                    params=dict(failure.params or {}),
                    spec_digest=spec_digest,
                    traceback=failure.formatted_traceback,
                )
            )
        return cells

    def _map_cells_supervised(
        self,
        cell_fn: CellFunction,
        parameter_sets: Sequence[Mapping[str, object]],
        seeds: Sequence[int],
        execution,
        store,
        spec_digest: Optional[str],
        failures_out: Optional[list],
    ) -> List[Optional[SweepCell]]:
        """Supervised/durable fan-out behind :meth:`map_cells`."""
        from repro.analysis.supervision import Supervisor, SweepError, SweepFailure
        from repro.telemetry import get_telemetry

        tel = get_telemetry()
        payloads = [
            (cell_fn, dict(params), seeds[i], i)
            for i, params in enumerate(parameter_sets)
        ]
        results: Dict[int, Mapping[str, object]] = {}
        if store is not None:
            from repro.store import cell_digest

            hits = tel.counter("sweep.cache_hits")
            for _, params, seed, index in payloads:
                cached = store.get(spec_digest, cell_digest(params, seed))
                if cached is not None:
                    results[index] = cached
                    hits.inc()
            if results:
                logger.info(
                    "results store: %d/%d cell(s) cached for spec %s",
                    len(results), len(payloads), spec_digest,
                )
        to_run = [p for p in payloads if p[3] not in results]
        failures = {}
        if to_run:
            result_mode = (
                self._result_handoff
                if self._result_handoff != "inline"
                else None
            )
            if self._workers == 1 and not execution.supervised:
                # Store-only single-worker runs stay inline (no process
                # per cell) but still commit after every cell.
                outcomes = self._run_inline(
                    [(fn, params, seed, None, i) for fn, params, seed, i in to_run],
                    store, spec_digest,
                )
                for (_, params, seed, index), outcome in zip(to_run, outcomes):
                    if isinstance(outcome, _CellFailure):
                        failures[index] = SweepFailure(
                            cell_index=index,
                            params=dict(params),
                            seed=seed,
                            spec_digest=spec_digest,
                            traceback=outcome.formatted_traceback,
                        )
                    else:
                        results[index] = dict(outcome)
            else:
                supervisor = Supervisor(
                    workers=min(self._workers, len(to_run)),
                    execution=execution,
                    mp_context=self._mp_context,
                    store=store,
                    spec_digest=spec_digest,
                    post_share_hook=getattr(self, "_post_share_hook", None),
                )
                run_results, failures = supervisor.run(
                    to_run, result_mode, execution.heartbeat_interval
                )
                results.update(run_results)
        cells: List[Optional[SweepCell]] = []
        ordered_failures = []
        for _, params, _, index in payloads:
            if index in results:
                cells.append(
                    SweepCell(parameters=dict(params), metrics=results[index])
                )
            else:
                cells.append(None)
                if index in failures:
                    ordered_failures.append(failures[index])
        if ordered_failures:
            if execution.on_failure == "raise":
                raise SweepError(ordered_failures[0])
            if failures_out is not None:
                failures_out.extend(ordered_failures)
        return cells

    def _run_inline(self, payloads, store=None, spec_digest=None) -> list:
        """Run :func:`_invoke` payloads in this process, in order.

        Each cell yields its metrics or a :class:`_CellFailure`, so a
        raising cell never stops its siblings — the failure contract of
        every worker count.  With a ``store``, each completed cell is
        committed as soon as it returns.
        """
        if store is not None:
            from repro.store import cell_digest
            from repro.telemetry import get_telemetry

            commits = get_telemetry().counter("sweep.store_commits")
        outcomes = []
        for payload in payloads:
            outcome = _invoke_contained(payload)
            outcomes.append(outcome)
            if store is None or isinstance(outcome, _CellFailure):
                continue
            _, params, seed, _, index = payload
            try:
                if store.put(
                    spec_digest, cell_digest(params, seed), dict(outcome),
                    params=params, seed=seed,
                ):
                    commits.inc()
            except Exception as exc:
                logger.warning(
                    "store commit failed for cell %d: %s", index, exc
                )
        return outcomes

    def run_sweep(
        self,
        sweep: "SweepSpec",
        cell_fn: CellFunction,
        rng: Seedish = None,
        *,
        execution=None,
        store=None,
        spec_digest: Optional[str] = None,
    ) -> SweepResult:
        """Evaluate a :class:`~repro.spec.model.SweepSpec`'s cells.

        Expands the sweep's grid × replications in declaration order and
        maps ``cell_fn`` over the override sets; the spec layer's
        ``ExperimentSpec.sweep`` and the grid/replication helpers below
        all route through here.  ``execution``/``store``/``spec_digest``
        select fault-tolerant execution (see :meth:`map_cells`); cells
        that fail beyond recovery under ``on_failure="record"`` surface
        on :attr:`SweepResult.failures` with ``None`` holes in the cell
        list.
        """
        failures: list = []
        cells = self.map_cells(
            cell_fn,
            sweep.parameter_sets(),
            rng=rng,
            execution=execution,
            store=store,
            spec_digest=spec_digest,
            failures_out=failures,
        )
        return SweepResult(cells=cells, failures=failures)

    def run_grid(
        self,
        grid: Mapping[str, Sequence[object]],
        cell_fn: CellFunction,
        rng: Seedish = None,
    ) -> SweepResult:
        """Cross-product sweep over ``grid``, returned as a
        :class:`~repro.analysis.sweeps.SweepResult`."""
        from repro.spec.model import SweepSpec

        if not grid:
            raise ValueError("grid must not be empty")
        return self.run_sweep(SweepSpec(grid=grid), cell_fn, rng=rng)

    def run_replications(
        self,
        cell_fn: CellFunction,
        parameters: Mapping[str, object],
        replications: int,
        rng: Seedish = None,
    ) -> List[SweepCell]:
        """Run the same cell ``replications`` times with derived seeds."""
        if replications < 1:
            raise ValueError("replications must be >= 1")
        sets = [dict(parameters, replication=i) for i in range(replications)]
        return self.map_cells(cell_fn, sets, rng=rng)
