"""Every name a module lists in `__all__` must exist.

A string left in `__all__` after its definition or import is removed
otherwise breaks only `from pulsebandit import *`, which no other test
runs."""

import importlib
import pkgutil

import pytest

import pulsebandit

MODULES = ["pulsebandit"] + [
    f"pulsebandit.{info.name}" for info in pkgutil.iter_modules(pulsebandit.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
