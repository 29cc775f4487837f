import importlib
import pkgutil

import pytest

import fuzzyplan

MODULES = ["fuzzyplan"] + [
    f"fuzzyplan.{info.name}" for info in pkgutil.iter_modules(fuzzyplan.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
