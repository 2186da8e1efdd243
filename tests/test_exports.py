"""Every name a bohrlab module exports in ``__all__`` resolves.

Layer tracing wraps a module's functions by ``__all__`` and skips a name
that does not resolve, so a stale entry would silently drop a function
from the trace.
"""

import importlib
import pkgutil

import pytest

import bohrlab

MODULES = sorted(f"bohrlab.{m.name}" for m in pkgutil.iter_modules(bohrlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
