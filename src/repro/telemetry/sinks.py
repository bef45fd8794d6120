"""Pluggable telemetry sinks and the sink-name registry.

A sink consumes snapshot dicts: :meth:`emit` receives each flushed
snapshot, :meth:`close` runs once when the owning
:class:`~repro.telemetry.core.Telemetry` shuts down.  Three stock sinks:

* :class:`MemorySink` — keeps snapshots in a list (tests, in-process
  inspection);
* :class:`JsonlSink` — appends one JSON line per snapshot to a file,
  flushing the OS buffer each emit so a crashed run keeps its records;
* :class:`ConsoleSink` — remembers the latest snapshot and prints the
  phase/counter summary table once, on close.

Sinks are *named* so :class:`~repro.spec.model.TelemetrySpec` (and the
CLI's ``--telemetry`` flag) can address them as strings: ``"memory"``,
``"console"``, ``"jsonl:PATH"`` — the part after the first ``:`` is the
sink's argument.  Third-party sinks plug in with :func:`register_sink`::

    @register_sink("statsd")
    def make_statsd(arg):            # arg: the text after "statsd:"
        return MyStatsdSink(arg or "localhost:8125")
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional


class MemorySink:
    """Collects snapshots in memory (``sink.snapshots``)."""

    def __init__(self) -> None:
        self.snapshots: List[Dict] = []
        self.closed = False

    def emit(self, snapshot: Dict) -> None:
        self.snapshots.append(snapshot)

    def close(self) -> None:
        self.closed = True

    @property
    def last(self) -> Optional[Dict]:
        """The most recent snapshot, or ``None``."""
        return self.snapshots[-1] if self.snapshots else None


class JsonlSink:
    """Appends one JSON line per snapshot to ``path``.

    The file opens lazily on first emit (a run that never flushes leaves
    no file) and is flushed after every record, so long-running processes
    stream observable state and a crash loses at most the in-flight line.
    The path's directory must exist when the sink is named
    (:func:`parse_sink_reference`), so a bad path fails before the run.
    """

    def __init__(self, path) -> None:
        self.path = self.check_path(path)
        self._fh = None

    @staticmethod
    def check_path(path) -> str:
        """``path`` as a string; ``ValueError`` if it is empty or its
        directory does not exist."""
        if not path:
            raise ValueError(
                "jsonl sink needs a path: use 'jsonl:/path/to/telemetry.jsonl'"
            )
        path = str(path)
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(
                f"jsonl sink {path!r}: directory {directory!r} does not exist"
            )
        return path

    def emit(self, snapshot: Dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(snapshot) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ConsoleSink:
    """Prints a one-shot summary table of the final snapshot on close."""

    def __init__(self, stream=None) -> None:
        self._stream = stream
        self._last: Optional[Dict] = None

    def emit(self, snapshot: Dict) -> None:
        self._last = snapshot

    def close(self) -> None:
        if self._last is None:
            return
        from repro.telemetry.report import render_snapshot

        stream = self._stream if self._stream is not None else sys.stderr
        print(render_snapshot(self._last), file=stream)


#: Sink name -> factory taking the (possibly empty) text after ``name:``.
_SINK_FACTORIES: Dict[str, Callable[[Optional[str]], object]] = {}


def register_sink(name: str, factory=None, *, overwrite: bool = False):
    """Register a sink factory under ``name``; usable as a decorator.

    The factory receives the text after the first ``:`` in the sink
    reference (``None`` when absent) and returns a sink object.
    """
    if not name or not isinstance(name, str) or ":" in name:
        raise ValueError(
            f"sink name must be a non-empty string without ':', got {name!r}"
        )

    def _add(fn):
        if fn is None:
            raise ValueError(f"cannot register None as sink {name!r}")
        if name in _SINK_FACTORIES and not overwrite:
            raise ValueError(
                f"sink {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _SINK_FACTORIES[name] = fn
        return fn

    if factory is None:
        return _add
    return _add(factory)


def sink_names() -> List[str]:
    """Sorted registered sink names."""
    return sorted(_SINK_FACTORIES)


def parse_sink_reference(reference: str) -> tuple:
    """Split ``"name[:arg]"`` and validate the name against the registry.

    Returns ``(name, arg)``; unknown names raise ``ValueError`` listing
    the registered sinks, and so does a ``jsonl`` path whose directory
    does not exist (the validation :class:`~repro.spec.model.TelemetrySpec`
    applies at construction, before any work).
    """
    if not reference or not isinstance(reference, str):
        raise ValueError(f"sink reference must be a string, got {reference!r}")
    name, _, arg = reference.partition(":")
    if name not in _SINK_FACTORIES:
        raise ValueError(
            f"unknown telemetry sink {name!r}; registered sinks: "
            f"{', '.join(sink_names())}"
        )
    if name == "jsonl" and _SINK_FACTORIES[name] is JsonlSink:
        JsonlSink.check_path(arg)
    return name, (arg or None)


def build_sink(reference: str):
    """Instantiate the sink a ``"name[:arg]"`` reference describes."""
    name, arg = parse_sink_reference(reference)
    return _SINK_FACTORIES[name](arg)


register_sink("memory", lambda arg: MemorySink())
register_sink("console", lambda arg: ConsoleSink())
register_sink("jsonl", JsonlSink)
