"""Every module's __all__ names only what the module defines."""

import importlib
import pkgutil

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
