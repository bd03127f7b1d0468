"""Every exported name resolves, so a stale ``__all__`` entry fails here
rather than at a user's import."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hwl
from hwl.report_io import PanelSpec

from test_numerics import REAL_PARAMETERS

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


@pytest.mark.parametrize("path", sorted(Path(hwl.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module of ``hwl`` imports is read in it (as a name or the
    root of an attribute, annotations included) or listed in its ``__all__``;
    an import whose first line carries ``# noqa: F401`` is exempt.  No linter
    is a dependency, so this is the dead-import check."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = {name: line for name, line in imported.items()
              if name not in read and name not in exported}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


# Records the library fills in: the results of the analyses and the spec its
# ``make_*`` factories build (whose modulated-window fields the spec checks
# itself, test_wavelets.py::TestModulatedWindow::test_spec_checks_its_fields).
RECORDS = {"WaveletSpec", "MomentReport", "DecayFit", "BoundCertificate", "SobolevEstimate"}


def test_real_parameters_are_checked():
    """Every parameter of the public API annotated with ``float`` has a row in
    ``test_numerics.REAL_PARAMETERS``, whose test passes it a bool, a string
    and non-finite values, so a new real parameter cannot skip the check."""
    objects = [getattr(hwl, n) for n in hwl.__all__] + [PanelSpec]
    annotated = {f"{obj.__name__}.{p.name}"
                 for obj in objects if callable(obj) and obj.__name__ not in RECORDS
                 for p in inspect.signature(obj, eval_str=True).parameters.values()
                 if "float" in str(p.annotation)}
    assert "smoothness_profile.gamma_grid" in annotated
    missing = annotated - REAL_PARAMETERS.keys()
    assert not missing, f"real parameters without a row in REAL_PARAMETERS: {sorted(missing)}"
