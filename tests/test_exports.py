"""Every exported name resolves, so a stale ``__all__`` entry fails here
rather than at a user's import."""

import importlib
import pkgutil
from pathlib import Path

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


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every name the benchmark's tracer wraps (``hwlbench/trace.py``), and
    the ``PV_BACKEND`` its run records carry, resolve, so a simplification of
    ``hwl`` cannot silently break a traced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from hwlbench.trace import TARGETS

    missing = [f"{module}.{attr}" for module, attr, *_ in TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"names the tracer wraps are gone: {missing}"
    assert hasattr(hwl, "PV_BACKEND")
