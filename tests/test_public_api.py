"""Every name a package lists in ``__all__`` exists.

A stale ``__all__`` entry breaks only ``from repro.<package> import *``,
which nothing else runs, so each listed name is looked up here.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("package", ["repro", "repro.sim"])
def test_the_spec_is_the_only_system_description(package):
    # The systems read the ExperimentSpec; the second description of the
    # same system and its churn section are not exported any more.
    module = importlib.import_module(package)
    assert {"SystemConfig", "ChurnConfig"}.isdisjoint(module.__all__)
    assert not hasattr(module, "SystemConfig")
    assert not hasattr(module, "ChurnConfig")
