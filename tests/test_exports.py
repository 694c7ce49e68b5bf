"""Every name a gbgw module exports in __all__ resolves, so `import *` works."""

import importlib
import pkgutil

import pytest

import gbgw

MODULES = ["gbgw"] + sorted(f"gbgw.{m.name}" for m in pkgutil.iter_modules(gbgw.__path__))


def unresolved(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__ and unresolved(module) == []


def test_a_stale_export_is_reported(monkeypatch):
    from gbgw import poly

    monkeypatch.setattr(poly, "__all__", poly.__all__ + ["no_such_name"])
    assert unresolved(poly) == ["no_such_name"]
