"""Recorded output of a streaming-system run.

:class:`SystemTrace` accumulates one row per learning round and exposes the
aggregates the paper's figures are built from.  Per-peer detail is kept as
cumulative statistics on the :class:`~repro.sim.entities.Peer` objects
(population size may change under churn); when the population is fixed the
system can additionally export a dense
:class:`~repro.game.repeated_game.Trajectory` for CE analysis.

Storage is *columnar*: rounds land in preallocated block arrays (scalar
columns plus ``(block, H)`` capacity/load panels) that roll over to a
completed-block list every :data:`_TRACE_BLOCK` rounds, so the per-round
append cost is a handful of array element writes instead of a Python
object construction.  Both systems write through :meth:`append_round`,
and readers take whole columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.game.repeated_game import Trajectory

# Rounds per preallocated column block.  A block of 1024 rounds costs
# ~48 KiB of scalar columns plus 16 * H bytes per round of panel data —
# small enough to never matter, large enough that the roll-over branch is
# amortized away.
_TRACE_BLOCK = 1024

_SCALAR_COLUMNS = (
    ("time", np.float64),
    ("welfare", np.float64),
    ("server_load", np.float64),
    ("min_deficit", np.float64),
    ("online_peers", np.int64),
    ("total_demand", np.float64),
)


class SystemTrace:
    """Dense per-round history of a system run (columnar storage)."""

    def __init__(
        self,
        actions: Optional[List[np.ndarray]] = None,
        utilities: Optional[List[np.ndarray]] = None,
    ) -> None:
        self.actions = actions        # per-round (N,) if fixed pop
        self.utilities = utilities    # per-round (N,) if fixed pop
        self._count = 0
        self._width: Optional[int] = None
        self._full: List[Dict[str, np.ndarray]] = []
        self._active: Optional[Dict[str, np.ndarray]] = None
        self._fill = 0
        self._ctr_appends = get_telemetry().counter("trace.appends")

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _new_block(self, width: int) -> Dict[str, np.ndarray]:
        block = {
            name: np.empty(_TRACE_BLOCK, dtype=dtype)
            for name, dtype in _SCALAR_COLUMNS
        }
        block["capacities"] = np.empty((_TRACE_BLOCK, width))
        block["loads"] = np.empty((_TRACE_BLOCK, width), dtype=np.int64)
        return block

    def append_round(
        self,
        time: float,
        capacities: np.ndarray,
        loads: np.ndarray,
        welfare: float,
        server_load: float,
        min_deficit: float,
        online_peers: int,
        total_demand: float,
    ) -> None:
        """Record one round straight into the column blocks.

        The capacity/load rows are copied into the preallocated panels,
        so callers may reuse their buffers.
        """
        if self._active is None or self._fill == _TRACE_BLOCK:
            if self._active is not None:
                self._full.append(self._active)
            if self._width is None:
                self._width = int(np.shape(capacities)[0])
            self._active = self._new_block(self._width)
            self._fill = 0
        i = self._fill
        block = self._active
        block["time"][i] = time
        block["welfare"][i] = welfare
        block["server_load"][i] = server_load
        block["min_deficit"][i] = min_deficit
        block["online_peers"][i] = online_peers
        block["total_demand"][i] = total_demand
        block["capacities"][i] = capacities
        block["loads"][i] = loads
        self._fill = i + 1
        self._count += 1
        self._ctr_appends.inc()

    # ------------------------------------------------------------------
    # Column views
    # ------------------------------------------------------------------

    @property
    def num_rounds(self) -> int:
        """Rounds recorded."""
        return self._count

    def _blocks(self) -> Iterator[Tuple[Dict[str, np.ndarray], int]]:
        for block in self._full:
            yield block, _TRACE_BLOCK
        if self._active is not None and self._fill:
            yield self._active, self._fill

    def _column(self, name: str) -> np.ndarray:
        parts = [block[name][:fill] for block, fill in self._blocks()]
        if not parts:
            return np.array([])
        return np.concatenate(parts)

    @property
    def times(self) -> np.ndarray:
        """Round timestamps, shape ``(T,)``."""
        return self._column("time")

    @property
    def welfare(self) -> np.ndarray:
        """Per-round social welfare, shape ``(T,)``."""
        return self._column("welfare")

    @property
    def server_load(self) -> np.ndarray:
        """Per-round server top-up, shape ``(T,)`` (Fig. 5 solid line)."""
        return self._column("server_load")

    @property
    def min_deficit(self) -> np.ndarray:
        """Per-round minimum bandwidth deficit, shape ``(T,)`` (Fig. 5 bound)."""
        return self._column("min_deficit")

    @property
    def online_peers(self) -> np.ndarray:
        """Per-round online population, shape ``(T,)``."""
        return self._column("online_peers")

    @property
    def total_demand(self) -> np.ndarray:
        """Per-round aggregate demand, shape ``(T,)``."""
        return self._column("total_demand")

    @property
    def loads(self) -> np.ndarray:
        """Per-round helper loads, shape ``(T, H)``."""
        if not self._count:
            raise ValueError("trace is empty")
        return self._column("loads")

    @property
    def capacities(self) -> np.ndarray:
        """Per-round helper capacities, shape ``(T, H)``."""
        if not self._count:
            raise ValueError("trace is empty")
        return self._column("capacities")

    def to_trajectory(self) -> Trajectory:
        """Dense trajectory for CE analysis (fixed population runs only)."""
        if not self.actions or not self.utilities:
            raise ValueError(
                "per-peer recording was not enabled or the population changed; "
                "run the system with record_peers=True and no churn"
            )
        from repro.game.repeated_game import Trajectory

        return Trajectory(
            capacities=self.capacities,
            actions=np.stack(self.actions),
            loads=self.loads,
            utilities=np.stack(self.utilities),
        )

    def summary(self) -> Dict[str, float]:
        """Headline aggregates over the whole run."""
        if not self._count:
            raise ValueError("trace is empty")
        return {
            "rounds": float(self.num_rounds),
            "mean_welfare": float(self.welfare.mean()),
            "mean_server_load": float(self.server_load.mean()),
            "mean_min_deficit": float(self.min_deficit.mean()),
            "mean_online_peers": float(self.online_peers.mean()),
            "final_welfare": float(self.welfare[-1]),
        }
