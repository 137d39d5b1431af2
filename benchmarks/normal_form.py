"""Size ladders for the word problem: `amalgam.normal_form` time against length.

    python benchmarks/normal_form.py [--out BENCH_normal_form.json]

Two word families, seeded random words over b B g d D and the
alternating word (bdg)^k cut to length, each at 1k, 2k, ..., 64k
letters.  Each rung is timed as the minimum of five repeats with
`time.perf_counter`.  The rows for layer "amalgam" time the package in
src/; the rows for layer "amalgam_reference" time the former quadratic
rewriter kept in tests/amalgam_reference.py, on the rungs up to 4k only.
Doubling n doubles the time of a linear rewriter and quadruples that of
a quadratic one; the printed exponent is log2 of that ratio.

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
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import amalgam_reference  # noqa: E402
from goeritz import amalgam  # noqa: E402

LADDER = tuple(1000 * 2**i for i in range(7))  # 1k .. 64k letters
REFERENCE_MAX = 4000
REPEATS = 5
SEED = 0


def _word(family: str, n: int) -> str:
    if family == "random":
        return amalgam.random_word(random.Random(SEED + n), n)
    return ("bdg" * (n // 3 + 1))[:n]


def _best_of(func, word: str) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        func(word)
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_normal_form.json"))
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    layers = (
        ("amalgam", amalgam.normal_form, LADDER),
        ("amalgam_reference", amalgam_reference.normal_form,
         tuple(n for n in LADDER if n <= REFERENCE_MAX)),
    )
    records = []
    for layer, func, ladder in layers:
        for family in ("random", "alternating"):
            previous = None
            for n in ladder:
                seconds = _best_of(func, _word(family, n))
                records.append({
                    "layer": layer, "op": f"normal_form/{family}", "n": n,
                    "seconds": seconds, "git_rev": rev, "python": python,
                })
                exponent = "" if previous is None else f"  exponent {math.log2(seconds / previous):.2f}"
                print(f"{layer:<18} {family:<12} n={n:>6}  {seconds * 1e3:10.2f} ms{exponent}")
                previous = seconds
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
