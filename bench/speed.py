"""Host speed, measured while every benchmark process runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over seconds to minutes, as other tenants come and go.  So while
a benchmark process runs, the parent -- pinned to the same core -- wakes
every :data:`PERIOD_S` and times one chunk of each calibration kernel it
needs, by its own CPU time.  CPU time leaves out the slices the core
spends on the benchmark process and keeps the slowdown the host imposes
on whatever runs on that core.  Two kernels, because the host slows
different work by different amounts:

* ``interpreter`` -- a pure-Python loop, which slows down with the
  program's interpreter- and dispatch-bound work (imports, spec
  construction, rounds of small per-channel calls);
* ``memory`` -- a sum over 4 MB of a 128 MB buffer, a new slice each
  chunk, so it reads from DRAM whatever the program left in the L3; it
  slows down with the program's memory-bound kernels.

Every stretch of a process is reported in *reference seconds*: its raw
seconds over the host's slowdown during that stretch, the harmonic mean
of the chunks inside it over :data:`REFERENCE_S` (work done in a stretch
goes as the mean of 1/slowdown).  A change to the program moves
reference seconds as much as it moves raw seconds; a change in the host's
speed moves them much less.  The chunks take 1-2% of the core.
"""

from __future__ import annotations

import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: CPU seconds one chunk of each kernel takes on the reference host
#: (about the quiet-hour median of an Intel Xeon host with a 105 MiB L3).
REFERENCE_S: Dict[str, float] = {"interpreter": 0.001, "memory": 0.0005}

#: Seconds between chunks while a process runs.
PERIOD_S = 0.1

#: Loop iterations of one interpreter chunk.
_ITERATIONS = 12_000

#: The memory kernel's buffer and the slice one chunk reads, in float64s.
_BUFFER = 16_000_000
_SLICE = 500_000


def _loop(iterations: int) -> int:
    x = 0
    for i in range(iterations):
        x += i * i % 7
    return x


@dataclass
class Timed:
    """One process, run to its end while the host's speed was sampled."""

    code: int
    #: ``perf_counter`` at spawn and at exit (system-wide on Linux, so
    #: comparable with stamps the process itself takes).
    start: float
    end: float
    #: ``(perf_counter, {kernel: slowdown})`` per chunk.
    chunks: List[Tuple[float, Dict[str, float]]]

    @property
    def wall(self) -> float:
        return self.end - self.start

    def slowdown(self, kind: str, t0: float, t1: float) -> float:
        """The host's slowdown on ``kind`` work from ``t0`` to ``t1``; the
        nearest chunk stands in when none fell inside."""
        inside = [s[kind] for t, s in self.chunks if t0 <= t <= t1]
        if not inside:
            middle = (t0 + t1) / 2.0
            inside = [min(self.chunks, key=lambda c: abs(c[0] - middle))[1][kind]]
        return statistics.harmonic_mean(inside)

    def reference_s(self, kind: str, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at the reference host's speed."""
        return (t1 - t0) / self.slowdown(kind, t0, t1)


class Calibrator:
    """The calibration kernels; ``memory`` allocates the 128 MB buffer."""

    def __init__(self, memory: bool) -> None:
        self.buffer = np.ones(_BUFFER) if memory else None
        self._slice = 0

    def chunk(self) -> Dict[str, float]:
        """One chunk of each kernel: its slowdown against the reference.

        The interpreter chunk has a short untimed lead-in that brings the
        loop back into the caches the benchmark process has just used.
        """
        _loop(_ITERATIONS // 10)
        start = time.thread_time()
        _loop(_ITERATIONS)
        out = {"interpreter": (time.thread_time() - start) / REFERENCE_S["interpreter"]}
        if self.buffer is not None:
            lo = self._slice * _SLICE
            self._slice = (self._slice + 1) % (_BUFFER // _SLICE)
            start = time.thread_time()
            self.buffer[lo:lo + _SLICE].sum()
            out["memory"] = (time.thread_time() - start) / REFERENCE_S["memory"]
        return out

    def run(self, cmd: List[str], timeout: float, **popen) -> Timed:
        """Run ``cmd`` to its end, taking a chunk every :data:`PERIOD_S`.

        Raises ``subprocess.TimeoutExpired`` after killing a process that
        outlives ``timeout``.
        """
        exited = threading.Event()
        end = []
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, **popen)

        def wait() -> None:
            proc.wait()
            end.append(time.perf_counter())
            exited.set()

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        chunks = []
        try:
            while not exited.wait(PERIOD_S):
                if time.perf_counter() - start > timeout:
                    raise subprocess.TimeoutExpired(cmd, timeout)
                chunks.append((time.perf_counter(), self.chunk()))
        finally:
            if not exited.is_set():
                proc.kill()
            waiter.join()
        chunks.append((time.perf_counter(), self.chunk()))  # one at least
        return Timed(proc.returncode, start, end[0], chunks)
