"""Entities of the multi-channel P2P streaming system.

Plain state holders — behaviour lives in :mod:`repro.sim.system` (the
round loop) and :mod:`repro.sim.churn` (population dynamics).  Identifiers
are small integers assigned by the system; helpers and peers are looked up
in dense lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.game.interfaces import Learner


@dataclass
class Channel:
    """A live video channel.

    Attributes
    ----------
    channel_id:
        Dense index of the channel.
    bitrate:
        Streaming rate (kbit/s) each viewer needs for smooth playback —
        the per-peer demand ``d_i`` of the Fig. 5 experiment.

    A channel's popularity weight lives in the system's channel sampler
    (``channel_weights``), where popularity drift moves it.
    """

    channel_id: int
    bitrate: float

    def __post_init__(self) -> None:
        if self.bitrate <= 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate}")


@dataclass
class Helper:
    """A helper peer acting as a micro-server.

    The helper's available upload bandwidth is driven externally by the
    capacity process; ``connected`` tracks the peers currently attached.
    """

    helper_id: int
    channel_id: int
    connected: Set[int] = field(default_factory=set)

    @property
    def load(self) -> int:
        """Number of peers currently connected."""
        return len(self.connected)

    def attach(self, peer_id: int) -> None:
        """Connect ``peer_id`` to this helper."""
        self.connected.add(peer_id)

    def detach(self, peer_id: int) -> None:
        """Disconnect ``peer_id`` (no-op if not connected)."""
        self.connected.discard(peer_id)


@dataclass
class Peer:
    """A viewing peer.

    Attributes
    ----------
    peer_id:
        Dense index (stable for the peer's lifetime; reused after leave
        only by explicitly re-joining peers).
    channel_id:
        The channel this peer watches.
    demand:
        Required streaming rate (kbit/s), normally the channel bitrate.
    learner:
        The helper-selection strategy object (RTHS/R2HS/baseline).
    online:
        Whether the peer currently participates in rounds.
    current_helper:
        Helper index within the channel's helper list, or ``None`` before
        the first round.
    """

    peer_id: int
    channel_id: int
    demand: float
    learner: Learner
    online: bool = True
    current_helper: Optional[int] = None
    joined_at: float = 0.0
    left_at: Optional[float] = None
    rounds_participated: int = 0
    cumulative_rate: float = 0.0
    cumulative_deficit: float = 0.0

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError(f"demand must be positive, got {self.demand}")

    @property
    def average_rate(self) -> float:
        """Mean received helper rate over participated rounds (0 if none)."""
        if self.rounds_participated == 0:
            return 0.0
        return self.cumulative_rate / self.rounds_participated


@dataclass
class StreamingServer:
    """The origin streaming server.

    The server tops up every peer whose helper share falls below its
    demand, so playback never stalls; its per-round load is the headline
    Fig. 5 metric.  ``capacity`` may be ``float('inf')`` (the paper never
    saturates the server in the reported figures).
    """

    capacity: float = float("inf")
    total_load: float = 0.0
    rounds: int = 0

    def serve(self, requested: float) -> float:
        """Serve up to ``requested`` kbit/s this round; returns granted."""
        if requested < 0:
            raise ValueError("requested must be >= 0")
        granted = min(requested, self.capacity)
        self.total_load += granted
        self.rounds += 1
        return granted

    @property
    def average_load(self) -> float:
        """Mean per-round server load so far."""
        if self.rounds == 0:
            return 0.0
        return self.total_load / self.rounds
