"""Every name the package or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import usdsep

MODULES = ["usdsep"] + [f"usdsep.{info.name}" for info in pkgutil.iter_modules(usdsep.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate entry in __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
