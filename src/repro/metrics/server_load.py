"""Server workload vs. minimum bandwidth deficit (paper Fig. 5).

The paper: "The minimum bandwidth deficit of helpers is defined as the
required amount of surplus bandwidth if the minimum upload bandwidth of all
helpers is fully utilized" — i.e. the lower bound

    deficit_min = max(0, sum_i d_i - sum_j C_j^min)

where ``C_j^min`` is helper ``j``'s lowest bandwidth level.  Fig. 5 shows
the realized server load staying close to that bound: helper selection is
good enough that the server only covers the structural shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.trace import SystemTrace


@dataclass(frozen=True)
class ServerLoadReport:
    """Fig. 5 summary.

    Attributes
    ----------
    server_load:
        Realized per-round server top-up, shape ``(T,)``.
    min_deficit:
        Per-round minimum bandwidth deficit, shape ``(T,)``.
    no_helper_load:
        Per-round aggregate demand (what the server would carry with no
        helpers at all), shape ``(T,)``.
    """

    server_load: np.ndarray
    min_deficit: np.ndarray
    no_helper_load: np.ndarray

    @property
    def saving_fraction(self) -> float:
        """Fraction of demand the helpers absorbed (steady-state mean)."""
        demand = self.no_helper_load.mean()
        if demand <= 0:
            return 0.0
        return float(1.0 - self.server_load.mean() / demand)


def server_load_report(trace: SystemTrace) -> ServerLoadReport:
    """Build the Fig. 5 summary from a system trace."""
    if trace.num_rounds == 0:
        raise ValueError("trace is empty")
    return ServerLoadReport(
        server_load=trace.server_load,
        min_deficit=trace.min_deficit,
        no_helper_load=trace.total_demand,
    )
