"""In-process checks of the chaos harness's wrapping and claim markers.

The faults themselves (worker crash, hang) are exercised end to end by
the supervision tests; these cover the parts that run inside one
process: untargeted cells pass through, a fault fires exactly ``times``
times, the wrapped cell pickles, and ``crash_after`` numbers executions.
"""

import os
import pickle

from repro.analysis.chaos import ChaosPlan


def cell(params, seed):
    return {"rep": params["replication"], "seed": seed}


def markers(plan, prefix):
    return sorted(n for n in os.listdir(plan.coord_dir) if n.startswith(prefix))


def test_untargeted_cell_runs_clean(tmp_path):
    plan = ChaosPlan(tmp_path / "chaos").crash_cell(5).hang_cell(6)
    assert plan.wrap(cell)({"replication": 1}, 3) == {"rep": 1, "seed": 3}
    assert os.listdir(plan.coord_dir) == []


def test_fault_fires_exactly_times_then_runs_clean(tmp_path):
    plan = ChaosPlan(tmp_path / "chaos").slow_cell(1, seconds=0.0, times=2)
    wrapped = plan.wrap(cell)
    for _ in range(4):
        assert wrapped({"replication": 1}, 0) == {"rep": 1, "seed": 0}
    assert markers(plan, "replication-1-slow_start") == [
        "replication-1-slow_start.0",
        "replication-1-slow_start.1",
    ]


def test_wrapped_cell_pickles(tmp_path):
    plan = ChaosPlan(tmp_path / "chaos").slow_cell(2, seconds=0.0)
    restored = pickle.loads(pickle.dumps(plan.wrap(cell)))
    assert restored({"replication": 2}, 9) == {"rep": 2, "seed": 9}
    assert markers(plan, "replication-2") == ["replication-2-slow_start.0"]


def test_crash_after_numbers_executions(tmp_path):
    # Executions before the chosen one claim sequence slots and run clean.
    wrapped = ChaosPlan(tmp_path / "chaos").crash_after(3).wrap(cell)
    for rep in range(3):
        assert wrapped({"replication": rep}, 0)["rep"] == rep
    assert markers(ChaosPlan(tmp_path / "chaos"), "seq.") == ["seq.0", "seq.1", "seq.2"]
