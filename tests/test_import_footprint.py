"""The package runs on numpy alone: scipy loads only for an LP solve.

``solve_ce_lp`` and ``solve_occupation_lp`` import ``scipy.optimize`` on
their first call.  Every other path -- ``import repro``, the CLI, a spec
run, ``repro profile``, ``repro eval`` -- must neither load scipy nor
need it installed.  A system build and run must not load ``numpy.ma``
either (numpy imports it on the first ``np.unique`` call).  Each check
runs in a fresh interpreter, so modules the pytest process already
imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_loads_no_scipy():
    out = run_python(
        "import sys, repro, repro.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.strip() == "[]"


def test_cli_commands_run_without_scipy_installed(tmp_path):
    matrix = json.loads((ROOT / "examples" / "eval_matrix.json").read_text())
    for options in matrix["scenario_options"].values():
        options.update(num_peers=20, num_stages=30)
    small = tmp_path / "eval_small.json"
    small.write_text(json.dumps(matrix))
    commands = [
        ["run", "--spec", "examples/smoke.json"],
        ["profile", "--spec", "examples/smoke.json"],
        ["eval", "--spec", str(small)],
    ]
    out = run_python(
        "import io, sys\n"
        "sys.modules['scipy'] = None  # as if only numpy were installed\n"
        "import repro.cli\n"
        f"for argv in {commands!r}:\n"
        "    print(argv[0], repro.cli.main(argv, out=io.StringIO()))\n"
    )
    assert out.split() == ["run", "0", "profile", "0", "eval", "0"]


def test_runs_and_eval_load_no_numpy_ma(tmp_path):
    small = tmp_path / "eval_small.json"
    matrix = json.loads((ROOT / "examples" / "eval_matrix.json").read_text())
    for options in matrix["scenario_options"].values():
        options.update(num_peers=20, num_stages=30)
    small.write_text(json.dumps(matrix))
    commands = [
        ["run", "--spec", "examples/smoke.json"],
        ["run", "--spec", "examples/smoke.json",
         "--set", "learner.bank=topk", "--set", "learner.topk=4"],
        ["eval", "--spec", str(small)],
    ]
    out = run_python(
        "import io, sys\n"
        "import repro.cli\n"
        f"for argv in {commands!r}:\n"
        "    code = repro.cli.main(argv, out=io.StringIO())\n"
        "    print(argv[-1], code, 'numpy.ma' in sys.modules)\n"
    )
    assert out.split() == [
        "examples/smoke.json", "0", "False",
        "learner.topk=4", "0", "False",
        str(small), "0", "False",
    ]
