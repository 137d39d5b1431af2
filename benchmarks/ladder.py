"""The one runner behind the size-ladder scripts in this directory.

    python benchmarks/<topic>.py [--out BENCH_<topic>.json] [--parent PARENT.json]

A script hands `main` its rows.  A row is (layer, op, rungs, run, probe):
`rungs` yields (n, arg) one rung at a time, so an input is built only
when its rung comes; `probe(arg)`, unless probe is None, is one untimed
run first, and a value other than None that it returns becomes the
record's "counters"; `run(arg)` is then timed as the minimum over
`repeats` runs with `time.perf_counter`.  The printed exponent is the
log-log slope of time against n between consecutive rungs of a row:
about 1 for linear work and 2 for quadratic.

Importing this module puts src/ and tests/ on sys.path, so a script
imports it before the package and the reference modules it times.

Stdlib only.  Writes a JSON object {"host": {...}, "records": [...]}
with one record {layer, op, n, seconds, [counters,] git_rev, python}
per rung.  `--parent` takes an output of the same script run from a
checkout of an earlier commit in the same session, the "before" side of
a change: each of its records whose layer ends neither in "_reference"
nor in "_parent" is appended with its layer renamed "<layer>_parent".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


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


def _best_of(run, arg, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def main(doc: str, out: str, repeats: int, rows) -> None:
    """Time `rows` and write their records to ROOT/`out`, or to --out."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / out))
    parser.add_argument("--parent", metavar="PATH",
                        help="output of this script at an earlier commit, merged as *_parent")
    args = parser.parse_args()
    rev, python = git_rev(), platform.python_version()
    records = []
    for layer, op, rungs, run, probe in rows:
        previous = None
        for n, arg in rungs:
            counters = None if probe is None else probe(arg)
            seconds = _best_of(run, arg, repeats)
            record = {"layer": layer, "op": op, "n": n, "seconds": seconds}
            if counters is not None:
                record["counters"] = counters
            records.append(dict(record, git_rev=rev, python=python))
            line = f"{layer:<20} {op:<24} n={n:>6}  {seconds * 1e3:10.3f} ms"
            if previous is not None:
                slope = math.log(seconds / previous[1]) / math.log(n / previous[0])
                line += f"  exponent {slope:.2f}"
            print(line if counters is None else f"{line}  {counters}")
            previous = (n, seconds)
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())["records"]
        records += [dict(r, layer=r["layer"] + "_parent") for r in parent
                    if not r["layer"].endswith(("_reference", "_parent"))]
    host = {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "system": platform.system(),
        "repeats": repeats,
        "timer": "time.perf_counter, minimum over repeats",
    }
    Path(args.out).write_text(json.dumps({"host": host, "records": records}, indent=1) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
