"""Every exported name resolves: a public name that is deleted must leave the
export lists with it."""
import importlib
import pkgutil

import pytest

import conesim

MODULES = ["conesim"] + [
    f"conesim.{m.name}" for m in pkgutil.iter_modules(conesim.__path__) if not m.ispkg
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"
