import ast
import importlib
import inspect
import pkgutil

import pytest

import treebo

# the package's own names are imported by name in its __init__, so a stale
# one fails at import; the modules list theirs in __all__
MODULES = [f"treebo.{m.name}" for m in pkgutil.iter_modules(treebo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _imports_scipy_optimize(module) -> bool:
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.optimize") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.optimize"):
                return True
            if node.module == "scipy" and any(a.name == "optimize" for a in node.names):
                return True
    return False


def test_only_gp_imports_scipy_optimize():
    # hyperparameter fitting is the one optimizer that is scipy's; the
    # acquisition ascent is the package's own
    importers = [n for n in MODULES if _imports_scipy_optimize(importlib.import_module(n))]
    assert importers == ["treebo.gp"]
