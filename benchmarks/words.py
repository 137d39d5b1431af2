"""Size ladders for free-group words: `words.is_primitive` and
`words.cyclic_reduce` time against length.

    python benchmarks/words.py [--out BENCH_words.json]

Two word families.  "fibonacci": seeded Nielsen images of x, the
primitive words that (u, v) -> (u v or v u, u) builds from (x, y),
relabelled and rotated, of F(11), F(13), ..., F(25) = 89 ... 75,025
letters.  "long_run": x^n y at n = 1k, 2k, ..., 64k, the shape on which
the former Whitehead search was quadratic.  Each rung is timed as the
minimum of five repeats with `time.perf_counter`.  The rows for layer
"words" time the package in src/; the rows for layer
"whitehead_reference" time the greedy Whitehead descent kept in
tests/whitehead_reference.py, on the rungs of at most REFERENCE_MAX
letters (up to F(19) = 4,181 and x^4000 y).
The printed exponent is the log-log slope between rungs, log2 of the
time ratio per doubling of the length: about 1 for linear work and 2
for quadratic.  cyclic_reduce takes the least of all n rotations, an
O(n^2) scan in C that shows past about 10k letters.

Stdlib only.  Writes a JSON object {"host": {...}, "records": [...]}
with one record {layer, op, n, seconds, git_rev, python} per rung.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import whitehead_reference  # noqa: E402
from goeritz import words  # noqa: E402
from normal_form import cpu_model, git_rev  # noqa: E402

NIELSEN_STEPS = tuple(range(9, 24, 2))  # F(steps + 2) = 89 .. 75,025 letters
LONG_RUNS = tuple(1000 * 2**i for i in range(7))  # 1k .. 64k letters x
REFERENCE_MAX = 5000
REPEATS = 5
SEED = 0


def _nielsen_image(steps: int) -> str:
    rng = random.Random(SEED + steps)
    u, v = "x", "y"
    for _ in range(steps):
        u, v = (u + v if rng.random() < 0.5 else v + u), u
    u = u.translate(str.maketrans("xy", "Yx"))
    turn = rng.randrange(len(u))
    return u[turn:] + u[:turn]


def _best_of(func, word: str) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        func(word)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_words.json"))
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    families = {
        "fibonacci": [_nielsen_image(steps) for steps in NIELSEN_STEPS],
        "long_run": ["x" * n + "y" for n in LONG_RUNS],
    }
    layers = (
        ("words", "is_primitive", words.is_primitive, math.inf),
        ("words", "cyclic_reduce", words.cyclic_reduce, math.inf),
        ("whitehead_reference", "is_primitive", whitehead_reference.is_primitive, REFERENCE_MAX),
    )
    records = []
    for layer, op, func, max_len in layers:
        for family, ladder in families.items():
            previous = None
            for word in ladder:
                if len(word) > max_len:
                    continue
                assert op != "is_primitive" or func(word), word
                seconds = _best_of(func, word)
                records.append({
                    "layer": layer, "op": f"{op}/{family}", "n": len(word),
                    "seconds": seconds, "git_rev": rev, "python": python,
                })
                exponent = ""
                if previous is not None:
                    slope = math.log(seconds / previous[1]) / math.log(len(word) / previous[0])
                    exponent = f"  exponent {slope:.2f}"
                print(f"{layer:<20} {op + '/' + family:<24} n={len(word):>6}"
                      f"  {seconds * 1e3:10.3f} ms{exponent}")
                previous = (len(word), seconds)
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
