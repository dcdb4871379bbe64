"""Every exported name resolves, so a removal takes its exports with it.

Each module's __all__ must name attributes the module has, once each, and
every name the package re-exports must sit in the __all__ of the module it
comes from.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import epifield

MODULES = sorted(info.name for info in pkgutil.iter_modules(epifield.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"epifield.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_resolve():
    tree = ast.parse(inspect.getsource(epifield))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"epifield.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(epifield, alias.asname or alias.name) is getattr(module, alias.name)
