"""Every module's __all__ names only what the module defines and what
some caller outside the tests reads, every public method or property has
such a reader too, every module-level private name has a reader in the
package itself, and the package imports nothing at runtime beyond the
standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import goeritz

MODULES = sorted(info.name for info in pkgutil.iter_modules(goeritz.__path__))
ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = (Path(goeritz.__path__[0]), ROOT / "benchmarks", ROOT / "perfbench")

# public names that nothing outside the tests reads yet, each with the
# consumer that keeps it
KEPT = {
    "abelianize": "ROADMAP item 7, the slope bridge of a primitive word",
    "iter_cyclically_reduced": "criterion 6 in tests/test_acceptance.py",
}


# public methods that nothing outside the tests reads by name, each with
# the consumer that keeps it
KEPT_METHODS = {
    "decompose": "perfbench/layers.py hooks it by a name string (ROADMAP 1a drops the hook)",
    "euler_characteristic": "ROADMAP item 3",
}


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


def _reads(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names.
    Definitions store or bind a name, and __all__ lists it as a string, so
    neither counts."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _caller_reads() -> set[str]:
    return {name for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))
            for name in _reads(ast.parse(path.read_text(), str(path)))}


def test_every_public_name_has_a_caller_outside_tests():
    reads = _caller_reads()
    public = [(name, n) for name in MODULES
              for n in importlib.import_module(f"goeritz.{name}").__all__]
    unread = [f"{name}.{n}" for name, n in public if n not in reads and n not in KEPT]
    assert not unread, ", ".join(unread)
    # a KEPT entry goes once its name gains a reader or leaves __all__
    stale = [n for n in KEPT if n in reads or n not in {n for _, n in public}]
    assert not stale, ", ".join(stale)


def _methods(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, name) of each public method or property a class body
    defines: a def, or an assignment of a property(...) call."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name) and node.value.func.id == "property"):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(cls.name, n) for n in names if not n.startswith("_")]
    return found


def test_every_public_method_has_a_caller_outside_tests():
    """The __all__ gate's reading rule applied to method and property
    names.  A rule on names cannot tell two classes' methods apart: it
    misses PairStabilizer.is_identity and TripleStabilizer.is_identity,
    unread while the same name was read for EdgeStabilizer and NormalForm,
    so those two were found by inspection."""
    reads = _caller_reads()
    methods = [m for path in sorted(Path(goeritz.__path__[0]).glob("*.py"))
               for m in _methods(ast.parse(path.read_text(), str(path)))]
    unread = [f"{cls}.{n}" for cls, n in methods if n not in reads and n not in KEPT_METHODS]
    assert not unread, ", ".join(unread)
    # a KEPT_METHODS entry goes once its name gains a reader or no class defines it
    stale = [n for n in KEPT_METHODS if n in reads or n not in {n for _, n in methods}]
    assert not stale, ", ".join(stale)


def _private_names(tree: ast.Module) -> list[str]:
    """The private names a module binds at its top level: a def, a class
    or an assignment target, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def test_every_private_name_has_a_reader_in_the_package():
    # a helper whose last caller in src/ went is dead code, even when a
    # test or a benchmark still reads it
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(goeritz.__path__[0]).glob("*.py"))}
    reads = set().union(*map(_reads, trees.values()))
    unread = [f"{name}.{n}" for name, tree in trees.items() for n in _private_names(tree)
              if n not in reads]
    assert not unread, ", ".join(unread)
