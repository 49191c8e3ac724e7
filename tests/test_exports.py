"""Every exported name resolves: a public name that is deleted must leave the
export lists with it. Every imported name is used: code that is deleted must
take its imports with it."""
import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", [])))
    assert not unused, f"{name} imports {unused} and never uses them"


def test_package_exports_the_union_of_its_modules():
    # each public name is declared once, in its module's __all__
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    union = {name for module in modules for name in getattr(module, "__all__", [])}
    assert conesim.__all__ == sorted(union)
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert getattr(conesim, name) is getattr(module, name), name
