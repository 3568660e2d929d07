import importlib
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
