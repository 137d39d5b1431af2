"""Every function perfbench's traced run wraps still exists under the
name perfbench/layers.py gives it.  `layers.install` looks each one up by
an attribute string, so no name gate sees the use, and a deletion in the
package would otherwise first fail `perfbench/run.py --trace 1`.  The
lookups here are the ones `install` makes; nothing is wrapped."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers(monkeypatch):
    # layers imports its sibling tracing as a top-level module
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counter_target_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    hooks = [(owner, attr) for owner, attr, *_ in layers.SPANS + layers.COUNTERS]
    assert hooks
    missing = []
    for owner, attr in hooks:
        if isinstance(owner, type):
            found = attr in owner.__dict__
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing, ", ".join(missing)
