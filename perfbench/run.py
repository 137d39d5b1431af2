"""Benchmark of the `goeritz` toolkit: one closed-loop client per workload.

    python3 perfbench/run.py --workload long_words --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, and nothing else is used.  Workloads (see BENCHMARK.json for
why each exists): long_words, short_words, slope_fixture, primitivity.

With --trace 0 the end-to-end metrics come from untraced runs in fresh
processes: one process runs the workload and reports throughput,
latency and its own peak RSS, and it and twenty set-up-only processes give
the median `setup_s`.  Each op's latency is its median over the passes,
and times are rescaled to a reference host speed measured by a
calibration chunk between ops (child.py says why).  With --trace 1 one
process alternates untraced and traced passes and reports the per-layer
metrics.

Stdout is a summary, then one JSON line {correct, attempted, failed,
metrics}.  The full record (size ladders, input and output digests,
checker self-test, raw pass times) goes to .perfbench_out/.  A missing
`src/goeritz` or a failed process exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_words", "short_words", "slope_fixture", "primitivity")
# set-up-only processes run before and after the measuring one, which is
# the twenty-first sample, so a burst of host load hits few of them
SETUP_PROCESSES_EACH_SIDE = 10
CHILD_TIMEOUT_S = 150


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(workload: str, seed: int, record: dict, trace: bool) -> list[str]:
    lines = [
        f"workload {workload}  seed {seed}  closed loop, 1 client, 1 thread",
        f"passes {record['passes']}  ops per pass {record['ops_per_pass']}  "
        f"attempted {record['attempted']}  failed {record['failed']}",
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    if not trace:
        tail = record["tail"]
        lines.append(
            f"  {'error_ratio':<42} {record['failed'] / record['attempted']:>14.6g} ratio"
        )
        lines.append(
            f"  latency_tail_ms is p{tail['percentile']:g}: {tail['beyond']} of the "
            f"{tail['ops']} ops beyond it; an op's latency is its median over the passes"
        )
        lines.append(f"  setup_s is the median of {len(record['setup_samples_s'])} processes")
    bad = [k for k, v in record["selftest"].items() if not all(v.values())]
    lines.append(f"checker self-test: {len(record['selftest'])} op kinds, failing: {bad or 'none'}")
    lines.append(f"inputs sha256  {record['inputs_sha256']}")
    lines.append(f"outputs sha256 {' '.join(record['outputs_sha256'])}")
    for failure in record["failures"]:
        lines.append(f"FAILED {failure}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "goeritz" / "__init__.py").is_file():
        print(f"error: no goeritz package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    setup_only = 0 if trace else SETUP_PROCESSES_EACH_SIDE
    try:
        setup = [_child("setup", args.workload, str(args.seed))["setup_s"] for _ in range(setup_only)]
        record = _child("run", args.workload, str(args.seed), repr(args.seconds), str(args.trace))
        setup += [_child("setup", args.workload, str(args.seed))["setup_s"] for _ in range(setup_only)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = record["metrics"]
    if not trace:
        setup.append(record["setup_s"])
        record["setup_samples_s"] = setup
        metrics["setup_s"] = {"value": median(setup), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": record["peak_rss_mib"], "unit": "MiB"}
    selftest_ok = all(all(v.values()) for v in record["selftest"].values())
    correct = record["failed"] == 0 and selftest_ok and len(record["outputs_sha256"]) == 1

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n")

    for line in _summary(args.workload, args.seed, record, trace):
        print(line)
    print(f"full record: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
