"""Every name a gbgw module exports in __all__ resolves, so `import *` works,
and every top-level definition and constant in the package is used by the
package."""

import ast
import importlib
import pathlib
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


def unreferenced(sources):
    """Top-level functions, classes and assigned names (other than __all__
    and __version__) of {module: source} that no module names outside their
    own definition, by a load, an attribute or an import."""
    defs, uses = set(), []
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
                names -= {"__all__", "__version__"}
            else:
                names = set()
            defs |= names
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    uses.append((sub.id, names))
                elif isinstance(sub, ast.Attribute):
                    uses.append((sub.attr, names))
                elif isinstance(sub, ast.ImportFrom):
                    uses += [(alias.name, names) for alias in sub.names]
    return defs - {name for name, owners in uses if name not in owners}


def package_sources():
    root = pathlib.Path(gbgw.__file__).parent
    return {path.stem: path.read_text() for path in sorted(root.glob("*.py"))}


PUBLIC_ONLY = {"reset_caches", "omega_closed_step", "normalized"}


def test_every_package_definition_is_used_in_the_package():
    # helpers that only tests call belong in the tests.  omega_closed_step and
    # normalized stay public for bench/workloads.py, bench/checks.py and the
    # tests; verify compares the two EO routes on their stored tables, so the
    # package calls neither
    assert unreferenced(package_sources()) == PUBLIC_ONLY


def test_an_unreferenced_definition_is_reported():
    sources = dict(package_sources())
    sources["extra"] = ("LIMIT = 3\n"
                        "BASE = 0\n"
                        "def helper(n):\n    return helper(n - 1) if n else BASE\n")
    assert unreferenced(sources) == PUBLIC_ONLY | {"helper", "LIMIT"}
