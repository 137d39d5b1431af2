"""Size ladder for the coset tree: `tree.ball`, `tree.is_tree`,
`tree.to_dot` and `tree.quotient` time against ball size.

    python benchmarks/tree.py [--out BENCH_tree.json] [--parent PARENT.json]

The rungs are the (radius, max_power) balls of the benchmark's
short_words workload (perfbench/workloads.py BALL_LADDER) plus (7, 3):
200 to 18,850 vertices.  is_tree, to_dot and quotient run on a ball
built outside the timing.  Each rung is timed as the minimum of three
repeats with `time.perf_counter`, after one untimed run that counts the
calls of `amalgam.check_syllables` (the one syllable check, run by every
`CosetVertex` and `TreeEdge` constructor) by wrapping the name that
goeritz.tree looks it up by.  The rows for layer "tree" time the package
in src/.  `--parent` merges the "tree" rows of another output of this
script, run from a checkout of an earlier commit in the same session, as
rows of layer "tree_parent": the "before" side of a change.
The printed figure is microseconds per ball vertex, flat for linear work.

Stdlib only.  Writes a JSON object {"host": {...}, "records": [...]}
with one record {layer, op, n, seconds, counters, git_rev, python} per
rung, n being the ball's vertex count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goeritz import tree  # noqa: E402
from normal_form import cpu_model, git_rev  # noqa: E402

BALL_LADDER = ((4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3))  # (radius, max_power)
REPEATS = 3
OPS = {
    "ball": lambda b: tree.ball(b.radius, b.max_power),
    "is_tree": tree.is_tree,
    "to_dot": tree.to_dot,
    "quotient": tree.quotient,
}


def _checks(run, b) -> int:
    """check_syllables calls made by one run(b)."""
    calls = 0
    check = tree.check_syllables

    def counted(rep):
        nonlocal calls
        calls += 1
        return check(rep)

    tree.check_syllables = counted
    try:
        run(b)
    finally:
        tree.check_syllables = check
    return calls


def _best_of(run, b) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run(b)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_tree.json"))
    parser.add_argument("--parent", metavar="PATH",
                        help="output of this script at an earlier commit, merged as tree_parent")
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    records = []
    for op, run in OPS.items():
        for radius, max_power in BALL_LADDER:
            b = tree.ball(radius, max_power)
            counters = {
                "radius": radius, "max_power": max_power,
                "vertices": len(b.vertices), "edges": len(b.edges),
                "check_syllables": _checks(run, b),
            }
            seconds = _best_of(run, b)
            n = len(b.vertices)
            records.append({
                "layer": "tree", "op": op, "n": n, "seconds": seconds,
                "counters": counters, "git_rev": rev, "python": python,
            })
            print(f"tree {op:<9} ({radius}, {max_power})  n={n:>6}  {seconds * 1e3:9.2f} ms"
                  f"  {seconds * 1e6 / n:6.2f} us/vertex  checks={counters['check_syllables']}")
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())["records"]
        records += [dict(r, layer="tree_parent") for r in parent if r["layer"] == "tree"]
    host = {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "system": platform.system(),
        "repeats": REPEATS,
        "timer": "time.perf_counter, minimum over repeats",
    }
    Path(args.out).write_text(json.dumps({"host": host, "records": records}, indent=1) + "\n")
    print(f"wrote {len(records)} records to {args.out}")


if __name__ == "__main__":
    main()
