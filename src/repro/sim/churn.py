"""Peer churn: Poisson arrivals, exponential lifetimes.

Paper Sec. I lists "join/leave of peers" among the non-stationarities the
adaptive algorithm must cope with; the churn ablation bench exercises it.
The process schedules join and leave events on the simulation engine; the
system supplies the actual join/leave mechanics via callbacks, so the churn
model stays independent of streaming details.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.engine import Simulator
from repro.util.rng import Seedish, as_generator

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.spec.model import ChurnSpec


class ChurnProcess:
    """Drives join/leave events on a :class:`~repro.sim.engine.Simulator`.

    Parameters
    ----------
    churn:
        The spec's :class:`~repro.spec.ChurnSpec`: the arrival rate, the
        mean lifetime (``None``: peers never leave) and whether initial
        peers get lifetimes too.
    on_join:
        Callback ``() -> peer_id`` executed at each arrival; returns the id
        of the newly joined peer (the system creates the peer and learner).
    on_leave:
        Callback ``(peer_id) -> None`` executed when a lifetime expires.
    """

    def __init__(
        self,
        churn: ChurnSpec,
        on_join: Callable[[], int],
        on_leave: Callable[[int], None],
        rng: Seedish = None,
    ) -> None:
        self._churn = churn
        self._on_join = on_join
        self._on_leave = on_leave
        self._rng = as_generator(rng)
        self._joins = 0
        self._leaves = 0

    @property
    def joins(self) -> int:
        """Arrivals processed so far."""
        return self._joins

    @property
    def leaves(self) -> int:
        """Departures processed so far."""
        return self._leaves

    def start(self, sim: Simulator) -> None:
        """Install the first arrival event (if arrivals are enabled)."""
        if self._churn.arrival_rate > 0:
            self._schedule_next_arrival(sim)

    def schedule_lifetime(self, sim: Simulator, peer_id: int) -> None:
        """Give ``peer_id`` an exponential online duration (if configured)."""
        if self._churn.mean_lifetime is None:
            return
        lifetime = float(self._rng.exponential(self._churn.mean_lifetime))

        def leave(_: Simulator) -> None:
            self._leaves += 1
            self._on_leave(peer_id)

        sim.schedule(lifetime, leave)

    def _schedule_next_arrival(self, sim: Simulator) -> None:
        gap = float(self._rng.exponential(1.0 / self._churn.arrival_rate))

        def arrive(inner_sim: Simulator) -> None:
            self._joins += 1
            peer_id = self._on_join()
            self.schedule_lifetime(inner_sim, peer_id)
            self._schedule_next_arrival(inner_sim)

        sim.schedule(gap, arrive)
