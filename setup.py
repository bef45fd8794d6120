"""Package metadata for ``repro``.

A plain ``setup.py`` also installs where PEP 517 editable builds fail,
e.g. without the ``wheel`` package:
``pip install -e . --no-use-pep517 --no-build-isolation`` falls back to
the classic ``setup.py develop`` path.

The library needs only numpy.  The ``lp`` extra adds scipy for the two
exact LP solvers, ``solve_ce_lp`` and ``solve_occupation_lp``, which
import it on first call.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"lp": ["scipy"]},
)
