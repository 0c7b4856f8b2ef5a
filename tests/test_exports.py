import importlib
import pkgutil

import pytest

import collisionless

MODULES = [info.name for info in pkgutil.iter_modules(collisionless.__path__)]


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_resolve(module):
    name = "collisionless" if module == "__init__" else f"collisionless.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
