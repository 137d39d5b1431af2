"""Every size-ladder script in benchmarks/ runs: each row's first rung,
probe and timed call, once.  The scripts are loaded the way
tests/test_ladder.py loads benchmarks/ladder.py, so a row that calls into
the package or the reference modules in a way they no longer support
fails here, not only when the ladder is next recorded."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(p.stem for p in BENCHMARKS.glob("*.py") if p.stem != "ladder")


def _load(monkeypatch, name: str):
    # the scripts import ladder, which prepends src/ and tests/
    monkeypatch.setattr(sys, "path", [str(BENCHMARKS), *sys.path])
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", SCRIPTS)
def test_first_rung_of_every_row_runs(monkeypatch, name):
    rows = list(_load(monkeypatch, name)._rows())
    assert rows
    for _layer, _op, rungs, run, probe in rows:
        _n, arg = next(iter(rungs))
        if probe is not None:
            probe(arg)
        run(arg)
