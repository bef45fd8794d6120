"""Ablation A9 — helper failures: adaptive selection vs. a fixed overlay.

Helpers are volunteer peers and fail without warning.  This bench injects
random outages (per-stage failure probability, geometric recovery) into
the bandwidth process and compares RTHS against the sticky fixed-overlay
population that prior helper systems assumed, on the same realization.

Metric: mean per-peer received rate and the fraction of peer-stages with
zero service (a peer camped on a dead helper).

Expected shape: the fixed overlay's zero-service fraction tracks the
helper unavailability (stuck peers wait out every outage), while RTHS
evacuates failed helpers within a few stages, keeping zero-service rare
and degrading mean rate only mildly as failures intensify.
"""

from repro.analysis import render_table
from repro.core import R2HSLearner
from repro.game import RepeatedGameDriver, StickyLearner
from repro.sim import paper_bandwidth_process
from repro.sim.failures import CorrelatedFailureProcess

from conftest import write_artifact

NUM_PEERS = 16
NUM_HELPERS = 4
STAGES = 2000
MEAN_OUTAGE = 80.0
FAILURE_RATES = [0.0, 0.002, 0.008]


def run_experiment(seed: int = 0):
    rows = []
    for rate in FAILURE_RATES:
        for label, factory in [
            ("RTHS", lambda i: R2HSLearner(
                NUM_HELPERS, rng=seed + 100 + i, epsilon=0.01, mu=0.25,
                u_max=900.0)),
            ("sticky overlay", lambda i: StickyLearner(
                NUM_HELPERS, rng=seed + 200 + i, switch_probability=0.0)),
        ]:
            process = CorrelatedFailureProcess(
                paper_bandwidth_process(NUM_HELPERS, rng=seed),
                num_groups=NUM_HELPERS,
                group_failure_rate=rate,
                mean_outage_rounds=MEAN_OUTAGE,
                rng=seed + 1,
            )
            learners = [factory(i) for i in range(NUM_PEERS)]
            trajectory = RepeatedGameDriver(learners, process).run(STAGES)
            tail = trajectory.tail(0.5)
            rows.append(
                {
                    "failure_rate": rate,
                    "strategy": label,
                    "mean_rate": float(tail.utilities.mean()),
                    "zero_service": float((tail.utilities == 0.0).mean()),
                }
            )
    return rows


def test_ablation_failure_injection(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = render_table(
        ["failure rate", "strategy", "mean peer rate kbit/s",
         "zero-service fraction"],
        [
            [r["failure_rate"], r["strategy"], r["mean_rate"],
             r["zero_service"]]
            for r in rows
        ],
    )
    write_artifact("ablation_failures", table)
    by_key = {(r["failure_rate"], r["strategy"]): r for r in rows}
    for rate in FAILURE_RATES[1:]:
        rths = by_key[(rate, "RTHS")]
        sticky = by_key[(rate, "sticky overlay")]
        # Adaptive selection suffers far less dead time than a fixed overlay.
        assert rths["zero_service"] < sticky["zero_service"] * 0.75, (rate, rths, sticky)
    # Without failures the two are comparable; no dead time for either.
    assert by_key[(0.0, "RTHS")]["zero_service"] == 0.0
    assert by_key[(0.0, "sticky overlay")]["zero_service"] == 0.0