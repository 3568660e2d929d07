import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import treebo
from treebo.kernels import AddTreeKernel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def test_benchmark_tracer_names_exist():
    # perfbench's tracer wraps these functions and kernel methods by name;
    # a missing one fails every traced benchmark run.  The file is read and
    # executed in memory, so nothing is written next to it.
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    missing = [
        name for name, (module, attr) in tracing.FUNCTIONS.items()
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [name for name, attr in tracing.METHODS.items() if not hasattr(AddTreeKernel, attr)]
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []
