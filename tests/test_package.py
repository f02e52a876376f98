import importlib
import pkgutil

import pytest

import nlfront

MODULES = ["nlfront"] + [f"nlfront.{m.name}" for m in pkgutil.iter_modules(nlfront.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
