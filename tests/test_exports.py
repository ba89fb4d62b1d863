import importlib
import pkgutil

import pytest

import ngfreg

MODULES = ["ngfreg"] + [f"ngfreg.{m.name}" for m in pkgutil.iter_modules(ngfreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"
