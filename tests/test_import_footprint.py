"""What each command imports: numpy alone, and only the modules it runs.

``solve_ce_lp`` and ``solve_occupation_lp`` import ``scipy.optimize`` on
their first call.  Every other path -- ``import repro``, the CLI, a spec
run, ``repro profile``, ``repro eval`` -- must neither load scipy nor
need it installed.  A system build and run must not load ``numpy.ma``
either (numpy imports it on the first ``np.unique`` call).

Package exports load on first use (``repro._lazy``), so a command
compiles only the modules it executes: a run answered from the results
store never imports the simulator.  The registries load their built-in
entries themselves, so no caller has to import ``repro.workloads`` first.
Each check runs in a fresh interpreter, so modules the pytest process
already imported cannot hide a regression.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import repro.cli

ROOT = Path(__file__).resolve().parents[1]

#: Prints the ``repro`` modules a fresh interpreter holds at that point.
PRINT_REPRO_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m == 'repro' or m.startswith('repro.'))))\n"
)


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
        # k < H: the kernel's per-group popularity and re-selection paths.
        ["run", "--spec", "examples/smoke.json",
         "--set", "learner.bank=topk", "--set", "learner.topk=2"],
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
        "learner.topk=2", "0", "False",
        str(small), "0", "False",
    ]


def small_eval_matrix(tmp_path):
    matrix = json.loads((ROOT / "examples" / "eval_matrix.json").read_text())
    for options in matrix["scenario_options"].values():
        options.update(num_peers=20, num_stages=30)
    path = tmp_path / "eval_small.json"
    path.write_text(json.dumps(matrix))
    return path


def modules_after(argv):
    """The ``repro`` modules a fresh interpreter imports to run ``argv``."""
    out = run_python(
        "import io, json, sys\n"
        "import repro.cli\n"
        f"assert repro.cli.main({argv!r}, out=io.StringIO()) == 0\n"
        + PRINT_REPRO_MODULES
    )
    return json.loads(out)


def under(modules, *prefixes):
    return [m for m in modules if any(m.startswith(p) for p in prefixes)]


def test_a_resumed_run_imports_no_simulator(tmp_path):
    argv = ["run", "--spec", "examples/smoke.json", "--store", str(tmp_path / "store")]
    assert repro.cli.main(argv, out=io.StringIO()) == 0  # fills the store
    modules = modules_after(argv + ["--resume"])
    assert len(modules) <= 30, modules
    assert under(
        modules, "repro.runtime.", "repro.core.", "repro.game.", "repro.eval.",
        "repro.workloads.", "repro.network.", "repro.analysis.experiments",
    ) == []


def test_a_resumed_eval_imports_no_runtime_or_learners(tmp_path):
    argv = ["eval", "--spec", str(small_eval_matrix(tmp_path)),
            "--store", str(tmp_path / "store")]
    assert repro.cli.main(argv, out=io.StringIO()) == 0  # fills the store
    modules = modules_after(argv + ["--resume"])
    assert under(
        modules, "repro.runtime.", "repro.core.", "repro.sim.system",
        "repro.sim.engine", "repro.sim.churn", "repro.game.",
    ) == []


def test_a_cold_run_imports_no_figure_or_oracle_code():
    modules = modules_after(["run", "--spec", "examples/smoke.json"])
    assert "repro.runtime.system" in modules
    assert set(modules).isdisjoint({
        "repro.analysis.experiments",
        "repro.mdp.occupation_lp",
        "repro.mdp.symmetric",
        "repro.core.equilibrium",
        "repro.core.diagnostics",
    })


def test_registries_load_their_builtins_on_first_use():
    # Registry contents and `repro list` output, read straight after
    # `from repro.spec import ...`, then again once every repro module
    # has been imported: a provider the registry fails to load itself
    # shows up as a difference.
    out = run_python(
        "import importlib, io, json, pkgutil\n"
        "from repro.spec import (CAPACITY_BACKENDS, CAPACITY_TRANSFORMS,\n"
        "                        LEARNERS, METRICS, SCENARIOS)\n"
        "import repro, repro.cli\n"
        "registries = [SCENARIOS, LEARNERS, CAPACITY_BACKENDS,\n"
        "              CAPACITY_TRANSFORMS, METRICS]\n"
        "def snapshot():\n"
        "    listing = io.StringIO()\n"
        "    assert repro.cli.main(['list'], out=listing) == 0\n"
        "    return [[r.names() for r in registries], listing.getvalue()]\n"
        "fresh = snapshot()\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "print(json.dumps([fresh, snapshot()]))\n"
    )
    fresh, everything = json.loads(out)
    assert fresh == everything
    assert len(fresh[0][0]) == 15  # the scenario presets
    assert all(fresh[0])


def test_package_exports_load_on_first_use():
    # `import repro` compiles no subpackage, yet a subpackage still reads
    # as an attribute of it; every name in each package's __all__ is
    # listed by dir() before it loads, then reads both as
    # `from package import name` and as an attribute.
    out = run_python(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        + PRINT_REPRO_MODULES
        + "assert repro.sim.SystemTrace is sys.modules['repro.sim.trace'].SystemTrace\n"
        "packages = ['repro'] + [f'repro.{i.name}'\n"
        "    for i in pkgutil.iter_modules(repro.__path__) if i.ispkg]\n"
        "unlisted, unread = [], []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    unlisted += [n for n in package.__all__ if n not in dir(package)]\n"
        "    for export in package.__all__:\n"
        "        scope = {}\n"
        "        exec(f'from {name} import {export} as value', scope)\n"
        "        if scope['value'] is not getattr(package, export):\n"
        "            unread.append(f'{name}.{export}')\n"
        "print(json.dumps([unlisted, unread]))\n"
    )
    first, last = out.splitlines()
    assert json.loads(first) == ["repro", "repro._lazy"]
    assert json.loads(last) == [[], []]
