"""Size ladders for free-group words: `words.is_primitive` and
`words.cyclic_reduce` time against length, and the per-call cost of
`goeritz primitive --json`.

    python benchmarks/words.py [--out BENCH_words.json] [--parent PARENT.json]

Three word families.  "fibonacci": seeded Nielsen images of x, the
primitive words that (u, v) -> (u v or v u, u) builds from (x, y),
relabelled and rotated, of F(11), F(13), ..., F(25) = 89 ... 75,025
letters.  "long_run": x^n y at n = 1k, 2k, ..., 64k, the shape on which
the former Whitehead search was quadratic.  "random": seeded random
reduced words of 1k ... 64k letters (cyclic_reduce only, as they are
not primitive).  Each rung is timed as the minimum of five repeats with
`time.perf_counter`.  The rows for layer "words" time the package in
src/; the rows for layer "cli" time `cli.main(["primitive", w,
"--json"])` with stdout captured, on the fibonacci rungs of at most
CLI_MAX letters (89 and 233), so the fixed cost per call shows; the rows
for layer "whitehead_reference" time the greedy Whitehead descent kept
in tests/whitehead_reference.py, on the rungs of at most REFERENCE_MAX
letters (up to F(19) = 4,181 and x^4000 y).  `--parent` merges the
"words" and "cli" rows of another output of this script, run from a
checkout of an earlier commit in the same session, as rows of layer
"words_parent" and "cli_parent": the "before" side of a change.
The printed exponent is the log-log slope between rungs, log2 of the
time ratio per doubling of the length: about 1 for linear work and 2
for quadratic.  cyclic_reduce finds the least rotation with two
candidate starts in linear time; its weakest family is "random", whose
short common prefixes cost one interpreted round per occurrence of the
least letter, where powers and Christoffel words compare in C.

Stdlib only.  Writes a JSON object {"host": {...}, "records": [...]}
with one record {layer, op, n, seconds, git_rev, python} per rung.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
from goeritz import cli, words  # noqa: E402
from normal_form import cpu_model, git_rev  # noqa: E402

NIELSEN_STEPS = tuple(range(9, 24, 2))  # F(steps + 2) = 89 .. 75,025 letters
LONG_RUNS = tuple(1000 * 2**i for i in range(7))  # 1k .. 64k letters x
CLI_MAX = 233
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


def _random_reduced(letters: int) -> str:
    rng = random.Random(SEED + letters)
    out = [rng.choice("xXyY")]
    while len(out) < letters:
        ch = rng.choice("xXyY")
        if ch != out[-1].swapcase():
            out.append(ch)
    return "".join(out)


def _cli_primitive(word: str) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["primitive", word, "--json"]) == 0


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
    parser.add_argument("--parent", metavar="PATH",
                        help="output of this script at an earlier commit, merged as *_parent")
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    families = {
        "fibonacci": [_nielsen_image(steps) for steps in NIELSEN_STEPS],
        "long_run": ["x" * n + "y" for n in LONG_RUNS],
        "random": [_random_reduced(n) for n in LONG_RUNS],
    }
    primitive = ("fibonacci", "long_run")
    layers = (
        ("words", "is_primitive", words.is_primitive, primitive, math.inf),
        ("words", "cyclic_reduce", words.cyclic_reduce, tuple(families), math.inf),
        ("cli", "primitive_json", _cli_primitive, ("fibonacci",), CLI_MAX),
        ("whitehead_reference", "is_primitive", whitehead_reference.is_primitive,
         primitive, REFERENCE_MAX),
    )
    records = []
    for layer, op, func, names, max_len in layers:
        for family in names:
            previous = None
            for word in families[family]:
                if len(word) > max_len:
                    continue
                assert op == "cyclic_reduce" or func(word), word
                seconds = _best_of(func, word)
                records.append({
                    "layer": layer, "op": f"{op}/{family}", "n": len(word),
                    "seconds": seconds, "git_rev": rev, "python": python,
                })
                exponent = ""
                if previous is not None:
                    slope = math.log(seconds / previous[1]) / math.log(len(word) / previous[0])
                    exponent = f"  exponent {slope:.2f}"
                print(f"{layer:<20} {op + '/' + family:<28} n={len(word):>6}"
                      f"  {seconds * 1e3:10.3f} ms{exponent}")
                previous = (len(word), seconds)
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())["records"]
        records += [dict(r, layer=r["layer"] + "_parent") for r in parent
                    if r["layer"] in ("words", "cli")]
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
