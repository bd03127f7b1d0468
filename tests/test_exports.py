"""Every exported name resolves, so a stale ``__all__`` entry fails here
rather than at a user's import."""

import importlib
import pkgutil

import pytest

import hwl

MODULES = ["hwl"] + [f"hwl.{m.name}" for m in pkgutil.iter_modules(hwl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace = {}
    exec("from hwl import *", namespace)
    assert set(hwl.__all__) <= namespace.keys()
