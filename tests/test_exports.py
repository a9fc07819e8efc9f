"""Every name a module exports must exist: tooling walks ``__all__`` with getattr."""

import importlib

import pytest

LAYERS = ("numerics", "model", "lmi", "analysis", "synthesis", "sim", "cli")


@pytest.mark.parametrize("module", ["ncspassive"] + [f"ncspassive.{m}" for m in LAYERS])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
