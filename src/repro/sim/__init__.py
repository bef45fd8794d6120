"""Discrete-event P2P streaming substrate.

* :mod:`repro.sim.engine` — the event engine (a heap of timed
  callbacks, periodic events, insertion-order tie-breaking).
* :mod:`repro.sim.bandwidth` — Markov-modulated helper capacity processes
  (the paper's ``[700, 800, 900]`` slow-switching environment) and trace
  replay for paired comparisons.
* :mod:`repro.sim.entities` — channels, helpers, peers and the origin
  server.
* :mod:`repro.sim.churn` — Poisson join / exponential-lifetime leave.
* :mod:`repro.sim.failures` / :mod:`repro.sim.adversarial` — helper
  failure injection and oscillating capacity wrapped around a capacity
  process.
* :mod:`repro.sim.system` — the runnable system tying it all together,
  on the skeleton both backends share (capacity process, channels and
  their helper partition, churn, switching, drift, the round loop).
* :mod:`repro.sim.trace` — per-round metric recording.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.engine": ["Simulator"],
    "repro.sim.bandwidth": [
        "PAPER_BANDWIDTH_LEVELS",
        "MarkovCapacityProcess",
        "VectorizedCapacityProcess",
        "CAPACITY_BACKENDS",
        "TraceCapacityProcess",
        "paper_bandwidth_process",
        "record_capacity_trace",
    ],
    "repro.sim.churn": ["ChurnProcess"],
    "repro.sim.entities": ["Channel", "Helper", "Peer", "StreamingServer"],
    "repro.sim.system": ["StreamingSystem", "LearnerFactory"],
    "repro.sim.trace": ["SystemTrace"],
    "repro.sim.failures": ["CorrelatedFailureProcess"],
    "repro.sim.adversarial": ["OscillatingCapacityProcess"],
})
