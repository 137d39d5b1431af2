"""The size-ladder runner benchmarks/ladder.py on two toy rows: record
format, probe counters, host block and the --parent merge rule."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "benchmarks" / "ladder.py"
KEYS = ["layer", "op", "n", "seconds", "git_rev", "python"]


def _load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # ladder prepends src/ and tests/
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows():
    def rungs():
        return ((n, list(range(n, 0, -1))) for n in (1000, 2000))

    return [
        ("x", "sort", rungs(), sorted, lambda arg: {"len": len(arg)}),
        ("x_reference", "sort", rungs(), sorted, None),
    ]


def _run(ladder, monkeypatch, out: Path, *argv: str) -> dict:
    monkeypatch.setattr(sys, "argv", ["toy.py", "--out", str(out), *argv])
    ladder.main("Toy ladder.", "BENCH_toy.json", 2, _rows())
    return json.loads(out.read_text())


def test_records_host_and_parent_merge(tmp_path, monkeypatch):
    ladder = _load(monkeypatch)
    first = _run(ladder, monkeypatch, tmp_path / "first.json")
    assert list(first["host"]) == ["machine", "cpu", "cpus", "system", "repeats", "timer"]
    assert first["host"]["repeats"] == 2
    records = first["records"]
    assert [(r["layer"], r["n"]) for r in records] == [
        ("x", 1000), ("x", 2000), ("x_reference", 1000), ("x_reference", 2000)]
    for r in records[:2]:
        assert list(r) == KEYS[:4] + ["counters"] + KEYS[4:]
        assert r["counters"] == {"len": r["n"]}
    for r in records[2:]:
        assert list(r) == KEYS
    assert all(r["seconds"] > 0 for r in records)

    # a parent file that already holds merged rows hands on only its own "x" rows
    parent = dict(first, records=records + [dict(records[0], layer="y_parent")])
    (tmp_path / "parent.json").write_text(json.dumps(parent))
    second = _run(ladder, monkeypatch, tmp_path / "second.json",
                  "--parent", str(tmp_path / "parent.json"))
    merged = second["records"][4:]
    assert merged == [dict(r, layer="x_parent") for r in records[:2]]
    assert list(merged[0]) == list(records[0])
