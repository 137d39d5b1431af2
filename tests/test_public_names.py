"""Every module's __all__ names only what the module defines, and the
package imports nothing at runtime beyond the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import goeritz

MODULES = sorted(info.name for info in pkgutil.iter_modules(goeritz.__path__))


def test_every_module_is_covered():
    assert {"amalgam", "cli", "contract", "farey", "simplicial", "stabilizers",
            "tree", "words"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"goeritz.{name}")
    public = module.__all__
    assert len(public) == len(set(public)), "duplicate names in __all__"
    missing = [n for n in public if not hasattr(module, n)]
    assert not missing, missing
    namespace: dict = {}
    exec(f"from goeritz.{name} import *", namespace)
    assert set(public) <= set(namespace)


@pytest.mark.parametrize("path", sorted(Path(goeritz.__path__[0]).glob("*.py")),
                         ids=lambda path: path.name)
def test_runtime_imports_are_standard_library(path):
    # relative imports (level > 0) stay inside the package
    tops = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    assert not sorted(tops - sys.stdlib_module_names)
