"""Every name a module exports must exist: tooling walks ``__all__`` with getattr.

Each function or class is exported once, by the module that defines it;
the package root exports only ``__version__``.
"""

import importlib
import inspect

import pytest

LAYERS = ("numerics", "model", "lmi", "analysis", "synthesis", "sim", "cli")


@pytest.mark.parametrize("module", ["ncspassive"] + [f"ncspassive.{m}" for m in LAYERS])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    foreign = [name for name in mod.__all__
               if (inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name)))
               and getattr(mod, name).__module__ != module]
    assert not foreign, f"{module}.__all__ re-exports names defined elsewhere: {foreign}"
    if module == "ncspassive":
        assert mod.__all__ == ["__version__"]
