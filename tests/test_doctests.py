"""Run the docstring examples shipped inside every package module."""

import doctest
import importlib
import pkgutil

import pytest

import goeritz

MODULES = sorted(info.name for info in pkgutil.iter_modules(goeritz.__path__, "goeritz."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name), verbose=False)
    assert failures == 0
