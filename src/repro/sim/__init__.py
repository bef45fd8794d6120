"""Discrete-event P2P streaming substrate.

* :mod:`repro.sim.engine` — the event engine (calendar queue, periodic
  events, deterministic tie-breaking).
* :mod:`repro.sim.bandwidth` — Markov-modulated helper capacity processes
  (the paper's ``[700, 800, 900]`` slow-switching environment) and trace
  replay for paired comparisons.
* :mod:`repro.sim.entities` / :mod:`repro.sim.tracker` — channels, helpers,
  peers, origin server, and the directory service.
* :mod:`repro.sim.churn` — Poisson join / exponential-lifetime leave.
* :mod:`repro.sim.failures` / :mod:`repro.sim.adversarial` — helper
  failure injection and oscillating capacity wrapped around a capacity
  process.
* :mod:`repro.sim.system` — the runnable system tying it all together.
* :mod:`repro.sim.trace` — per-round metric recording.
"""

from repro.sim.bandwidth import (
    CAPACITY_BACKENDS,
    PAPER_BANDWIDTH_LEVELS,
    MarkovCapacityProcess,
    TraceCapacityProcess,
    VectorizedCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.engine import EventHandle, Simulator
from repro.sim.adversarial import OscillatingCapacityProcess
from repro.sim.failures import CorrelatedFailureProcess, FailureInjectingProcess
from repro.sim.entities import Channel, Helper, Peer, StreamingServer
from repro.sim.system import LearnerFactory, StreamingSystem, SystemConfig
from repro.sim.trace import SystemTrace
from repro.sim.tracker import Tracker

__all__ = [
    "Simulator",
    "EventHandle",
    "PAPER_BANDWIDTH_LEVELS",
    "MarkovCapacityProcess",
    "VectorizedCapacityProcess",
    "CAPACITY_BACKENDS",
    "TraceCapacityProcess",
    "paper_bandwidth_process",
    "record_capacity_trace",
    "ChurnConfig",
    "ChurnProcess",
    "Channel",
    "Helper",
    "Peer",
    "StreamingServer",
    "StreamingSystem",
    "SystemConfig",
    "LearnerFactory",
    "SystemTrace",
    "Tracker",
    "FailureInjectingProcess",
    "CorrelatedFailureProcess",
    "OscillatingCapacityProcess",
]
