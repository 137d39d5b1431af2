"""Size ladders for the slope fixture: `contract.contract_loop`,
`farey.build`, `farey.verify_axioms`, and the simplicial layer's
`barycentric` and `remove_open_stars` on `farey.build(n)`, time against
size.

    python benchmarks/slope.py [--out BENCH_slope.json] [--parent PARENT.json]

contract_loop runs on based loops of 100, 200, ..., 12,800 positions,
each the concatenation of seeded 50-position `farey.random_based_loop`
segments (the shape the benchmark's slope_fixture workload uses);
build(n), verify_axioms(n, 200, seed), build(n).barycentric() and
remove_open_stars on that subdivision run at n = 16, 32, 64, 128 (the
complex they start from is built outside the timing).
Each rung is timed as the minimum of three repeats with
`time.perf_counter`, after one untimed run that counts the oracle calls
or the simplices.
The rows for layer "slope" time the package in src/; the rows for layer
"slope_reference" time the former pair-scanning and recompute-every-move
code kept in tests/slope_reference.py, on the rungs up to REFERENCE_MAX.
The rows for layer "simplicial_reference" time the former simplicial
layer kept in tests/simplicial_reference.py on the same complexes:
`barycentric`, `remove_open_stars`, and "build_closed", which is
`farey.build(n)` with its simplices closed under faces again by that
layer's `Complex.__init__`, as `farey.build` did before it handed its
list over as built.  `--parent` merges the "slope" rows of another
output of this script (run from a checkout of an earlier commit) as rows
of layer "slope_parent": the "before" side of a change.
The printed exponent is log2 of the time ratio between rungs; for
build and verify_axioms a rung doubles n and so about quadruples the
vertex count, so linear work there shows as exponent about 2.  The
same holds for the simplicial rows.

Stdlib only.  Writes a JSON object {"host": {...}, "records": [...]}
with one record {layer, op, n, seconds, counters, git_rev, python} per
rung.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import simplicial_reference  # noqa: E402
import slope_reference  # noqa: E402
from goeritz import contract, farey, simplicial  # noqa: E402
from normal_form import cpu_model, git_rev  # noqa: E402

LOOP_LADDER = (100, 200, 400, 800, 1600, 3200, 6400, 12800)  # positions
FAREY_LADDER = (16, 32, 64, 128)  # max denominator
SEGMENT = 50
AXIOM_SAMPLES = 200
REFERENCE_MAX = {"contract_loop": 1600, "build": 64, "verify_axioms": 64}
REPEATS = 3
SEED = 0


def _loop(positions: int) -> list:
    rng = random.Random(SEED + positions)
    loop: list = []
    for _ in range(positions // SEGMENT):
        loop += farey.random_based_loop(rng.randrange(1 << 30), 50, SEGMENT - 3, SEGMENT - 3)
    return loop


def _sizes(complex_) -> dict:
    return {"vertices": len(complex_.simplices(0)), "edges": len(complex_.simplices(1)),
            "triangles": len(complex_.simplices(2))}


def _counted(calls: Counter, name: str, oracle):
    def wrapper(*args):
        calls[name] += 1
        return oracle(*args)
    return wrapper


def _contract_counters(contract_loop, loop: list) -> dict:
    calls: Counter = Counter()
    oracles = [
        _counted(calls, name, oracle)
        for name, oracle in (("adjacent", farey.adjacent), ("remoteness", farey.remoteness),
                             ("blocking", farey.blocking))
    ]
    cert = contract_loop(*oracles, loop, farey.BASE)
    moves = len(cert.moves)
    return {
        "positions": len(loop),
        "moves": moves,
        "oracle_calls": dict(sorted(calls.items())),
        "remoteness_calls_per_move": calls["remoteness"] / max(moves, 1),
    }


def _slope_ops(contract_loop, build, verify_axioms):
    """(op, ladder, run(n), counters(n)) for one slope-fixture implementation."""
    loops = {n: _loop(n) for n in LOOP_LADDER}

    def axiom_counters(n):
        report = verify_axioms(n, AXIOM_SAMPLES, SEED)
        return {"samples": report.samples, "violations": len(report.violations)}

    return (
        ("contract_loop", LOOP_LADDER,
         lambda n: contract_loop(farey.adjacent, farey.remoteness, farey.blocking,
                                 loops[n], farey.BASE),
         lambda n: _contract_counters(contract_loop, loops[n])),
        ("build", FAREY_LADDER, build, lambda n: _sizes(build(n))),
        ("verify_axioms", FAREY_LADDER,
         lambda n: verify_axioms(n, AXIOM_SAMPLES, SEED), axiom_counters),
    )


def _simplicial_ops(layer):
    """(op, ladder, run(n), counters(n)) for one simplicial layer, on the
    simplices of farey.build(n)."""

    @cache  # per call of _simplicial_ops, so a layer's inputs go when its rows are done
    def inputs(n: int) -> tuple:
        """build(n) in the layer's Complex, its vertices and its subdivision."""
        complex_ = layer._raw(farey.build(n).simplices())
        return complex_, complex_.vertices(), complex_.barycentric()

    def pared(n: int):
        _, vertices, subdivision = inputs(n)
        return layer.remove_open_stars(subdivision, vertices)

    ops = [
        ("barycentric", FAREY_LADDER, lambda n: inputs(n)[0].barycentric(),
         lambda n: _sizes(inputs(n)[2])),
        ("remove_open_stars", FAREY_LADDER, pared, lambda n: _sizes(pared(n))),
    ]
    if layer is simplicial_reference:
        def closed(n: int):
            return layer.Complex(farey.build(n).simplices())
        ops.append(("build_closed", FAREY_LADDER, closed, lambda n: _sizes(closed(n))))
    return ops


IMPLEMENTATIONS = {
    "slope": lambda: (*_slope_ops(contract.contract_loop, farey.build, farey.verify_axioms),
                      *_simplicial_ops(simplicial)),
    "slope_reference": lambda: _slope_ops(slope_reference.contract_loop, slope_reference.build,
                                          slope_reference.verify_axioms),
    "simplicial_reference": lambda: _simplicial_ops(simplicial_reference),
}


def _best_of(run, n: int) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run(n)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_slope.json"))
    parser.add_argument("--parent", metavar="PATH",
                        help="output of this script at an earlier commit, merged as slope_parent")
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    records = []
    for layer, ops in IMPLEMENTATIONS.items():
        for op, ladder, run, counters in ops():
            previous = None
            for n in ladder:
                if layer == "slope_reference" and n > REFERENCE_MAX[op]:
                    continue
                counted = counters(n)  # untimed; also builds the simplicial inputs
                seconds = _best_of(run, n)
                records.append({
                    "layer": layer, "op": op, "n": n, "seconds": seconds,
                    "counters": counted, "git_rev": rev, "python": python,
                })
                exponent = "" if previous is None else f"  exponent {math.log2(seconds / previous):.2f}"
                print(f"{layer:<20} {op:<17} n={n:>5}  {seconds * 1e3:10.2f} ms{exponent}")
                previous = seconds
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())["records"]
        records += [dict(r, layer="slope_parent") for r in parent if r["layer"] == "slope"]
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
