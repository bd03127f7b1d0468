"""Every exported name resolves, so a stale ``__all__`` entry fails here
rather than at a user's import."""

import ast
import importlib
import inspect
import pkgutil
import re
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


SOURCES = sorted(Path(hwl.__file__).parent.glob("*.py"))

# ``hwlbench/trace.py`` wraps ``cli._write_run_json``, an alias nothing in
# ``hwl`` reads; it goes with its tracer row in ROADMAP item 1.
UNREAD_PRIVATE = {"cli.py": {"_write_run_json"}}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    """Every private top-level function, class or constant of a module of
    ``hwl`` is read somewhere in ``hwl``: as a name in its own module, or by
    another module that imports it or reads it as an attribute of the
    module.  This is the dead-helper check."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    read = {node.id for node in ast.walk(trees[path])
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == path.stem:
            read.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == path.stem):
            read.add(node.attr)
    defined = set()
    for node in trees[path].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    unread = {name for name in defined - read - UNREAD_PRIVATE.get(path.name, set())
              if name.startswith("_") and not name.startswith("__")}
    assert not unread, f"{path.name} defines private names nothing reads: {sorted(unread)}"


# the ``requires-python`` floor of ``pyproject.toml``, as (major, minor)
REQUIRES_PYTHON = tuple(int(n) for n in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"),
    re.MULTILINE).groups())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_at_the_python_floor(path):
    """Every module of ``hwl`` is in the grammar of the oldest Python that
    ``pyproject.toml`` admits (3.10 today), so syntax of a newer Python
    (such as ``except*``) fails here, not at a user's import."""
    ast.parse(path.read_text(encoding="utf-8"), feature_version=REQUIRES_PYTHON)


def _is_np_fft_call(node) -> bool:
    """``node`` is a call of ``np.fft.NAME`` (or ``numpy.fft.NAME``)."""
    func = node.func
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
            and func.value.attr == "fft" and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fft_writes_into_a_given_buffer(path):
    """No ``np.fft`` call in ``hwl`` passes ``out``: NumPy's FFTs take it
    from 2.0 on, and ``pyproject.toml`` declares ``numpy>=1.24``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _is_np_fft_call(node)
             and any(k.arg == "out" for k in node.keywords)]
    assert not calls, f"{path.name} passes out= to np.fft on lines {calls}"


# Records the library fills in: the results of the analyses.  The generator
# classes are not records: ``ModulatedWindow``'s real parameters have rows in
# REAL_PARAMETERS like any other.
RECORDS = {"MomentReport", "DecayFit", "BoundCertificate", "SobolevEstimate"}


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
