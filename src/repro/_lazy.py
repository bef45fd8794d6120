"""Lazy package exports (PEP 562): a name loads its module on first read.

A package ``__init__`` declares which module defines each name it
exports and hands that map to :func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.core.population": ["LearnerPopulation"],
        "repro.core.r2hs": ["R2HSLearner", "regret_matching_learner"],
    })

Importing the package then imports none of those modules.  The first
read of ``LearnerPopulation`` (``from repro.core import
LearnerPopulation`` or ``repro.core.LearnerPopulation``) imports
``repro.core.population`` and binds the name in the package, so later
reads never reach the hook.  A short command therefore compiles only the
modules whose names it reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each defining module (a full dotted name) to the
    names the package re-exports from it; ``__all__`` lists them in that
    order.  A name that is not an export but names a submodule imports
    the submodule, as reading ``repro.sim`` after ``import repro`` did
    while the packages imported their subpackages eagerly.
    """
    source: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__, list(source)
