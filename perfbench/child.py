"""One fresh benchmark process.

    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py run WORKLOAD SEED SECONDS TRACE

Both modes time the set-up: importing every `goeritz` module plus one
warm-up op of each op kind.  Generating the inputs is not part of it.
`run` then self-tests the checkers and measures whole passes over the
op list for about SECONDS of timed work: one client, one thread, each op
issued when the previous one has returned.  Reported times are rescaled
by the host speed a calibration chunk measures (see REFERENCE_CHUNK_S).
With TRACE 1 it alternates untraced and traced passes and reports the
per-layer metrics instead; their times are raw.  The result is one JSON
line on stdout.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
from math import exp, lgamma, log, log1p
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "goeritz", "goeritz.stabilizers", "goeritz.amalgam", "goeritz.tree", "goeritz.words",
    "goeritz.simplicial", "goeritz.contract", "goeritz.farey", "goeritz.cli",
)
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

# Other tenants of the host slow identical work by up to 2x, in CPU time as
# much as in wall time, for spells from a second to longer than a whole run,
# so neither repeats nor run length remove it.  A fixed pure-Python
# calibration chunk therefore runs between ops (at most once per
# CALIBRATION_EVERY_S), and every time of a pass is multiplied by
# (REFERENCE_CHUNK_S / median chunk time of the pass) ** elasticity, where
# the workload's elasticity (workloads.SPEED_ELASTICITY) says how strongly
# its ops slow down when the chunk does.  Reported times are wall times at
# the host speed where one chunk takes REFERENCE_CHUNK_S (an unloaded
# 2.0 GHz Xeon vCPU, Python 3.11); raw times stay in the record.
REFERENCE_CHUNK_S = 0.00035
CALIBRATION_EVERY_S = 0.01
_CALIBRATION_TABLE = {k: k for k in range(64)}


def _calibration_chunk() -> int:
    # interpreter-bound and builds no containers, so the collector stays out of it
    table = _CALIBRATION_TABLE
    acc = 0
    for i in range(1000):
        k = i & 63
        v = table[k] + i
        table[k] = v % 1000003
        acc = (acc * 31 + v) & 0xFFFFFFFF
    return acc


def _timed_chunk() -> float:
    start = perf_counter()
    _calibration_chunk()
    return perf_counter() - start


def _speed_factor(chunks: list[float], elasticity: float) -> float:
    """Multiply a time measured alongside these chunk times by this."""
    return (REFERENCE_CHUNK_S / median(chunks)) ** elasticity


def _import_goeritz() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    elapsed = perf_counter() - start
    origin = Path(sys.modules["goeritz"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"goeritz imported from {origin}, not from {ROOT / 'src'}")
    return elapsed


def _run_pass(ops, runners, tracer=None):
    """Issue every op in order, with calibration chunks in between; return
    (op latencies, chunk times, records)."""
    from workloads import Ref

    slots: dict = {}
    latencies: list[float] = []
    chunks: list[float] = []
    records: list[tuple] = []
    clock = perf_counter
    next_chunk = clock()
    for index, op in enumerate(ops):
        args = tuple(slots[a.key] if type(a) is Ref else a for a in op.args)
        if tracer is not None:
            tracer.op_id = index
        start = clock()
        try:
            result, ok = runners[op.kind](*args), True
        except Exception as exc:  # an op that raises is counted as failed
            result, ok = exc, False
        end = clock()
        latencies.append(end - start)
        if op.out is not None:
            slots[op.out] = result
        records.append((args, result, ok))
        if end >= next_chunk:
            chunks.append(_timed_chunk())
            next_chunk = clock() + CALIBRATION_EVERY_S
    return latencies, chunks, records


def _accepted(kind, op, args, result) -> bool:
    try:
        return bool(kind.check(op, args, result))
    except Exception:  # a malformed result fails its check
        return False


def _check_pass(ops, records, kinds):
    """Check every result; return (failures, output digest)."""
    digest = hashlib.sha256()
    failures = []
    for index, (op, (args, result, ok)) in enumerate(zip(ops, records)):
        kind = kinds[op.kind]
        ok = ok and _accepted(kind, op, args, result)
        if ok:
            digest.update(kind.render(result).encode())
        else:
            digest.update(f"failed {type(result).__name__}".encode())
            failures.append(f"op {index} {op.kind} size {op.size}: {result!r}"[:300])
        digest.update(b"\n")
    return failures, digest.hexdigest()


def _self_test(warm_ops, records, kinds) -> dict:
    """Each checker must accept the real warm-up result of its kind and
    reject one deliberately wrong result."""
    outcome = {}
    for op, (args, result, ok) in zip(warm_ops, records):
        if op.kind in outcome:
            continue
        kind = kinds[op.kind]
        wrong = kind.corrupt(op, args, result)
        outcome[op.kind] = {
            "accepts_real": ok and _accepted(kind, op, args, result),
            "rejects_wrong": not _accepted(kind, op, args, wrong),
        }
    return outcome


def _input_digest(ops) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(f"{op.kind}|{op.size}|{op.args!r}|{op.expect!r}\n".encode())
    return digest.hexdigest()


def _tail_percentile(op_count: int) -> float:
    """Highest of p99.9, p99, p90 with at least ten of the op list's ops beyond it."""
    for pct in TAIL_PERCENTILES:
        if op_count * (100 - pct) / 100 >= 10:
            return pct
    raise SystemExit(f"op list of {op_count} ops is too short for a p90 tail")


def _beta_cdf(a: float, b: float, steps: int = 4000):
    """Regularized incomplete beta I_x(a, b) on a grid, by the midpoint rule."""
    norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    cdf = [0.0]
    for k in range(steps):
        t = (k + 0.5) / steps
        cdf.append(cdf[-1] + exp(norm + (a - 1) * log(t) + (b - 1) * log1p(-t)) / steps)
    total = cdf[-1]

    def at(x: float) -> float:
        pos = x * steps
        i = min(int(pos), steps - 1)
        return (cdf[i] + (cdf[i + 1] - cdf[i]) * (pos - i)) / total

    return at


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics around rank q*n, steadier than one order statistic
    when the op mix leaves gaps between latency clusters."""
    ordered = sorted(values)
    n = len(ordered)
    cdf = _beta_cdf(q * (n + 1), (1 - q) * (n + 1))
    return sum((cdf(i / n) - cdf((i - 1) / n)) * x for i, x in enumerate(ordered, 1))


def _ladder(ops, per_op) -> list[dict]:
    """Per op kind and rung: op count and median latency."""
    cells: dict = {}
    for op, latency in zip(ops, per_op):
        cells.setdefault((op.kind, op.size), []).append(latency)
    return [
        {"kind": kind, "size": size, "ops": len(samples),
         "median_ms": median(samples) * 1e3}
        for (kind, size), samples in sorted(cells.items())
    ]


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    for _ in range(5):  # let the interpreter specialise the chunk first
        _calibration_chunk()
    chunks = [_timed_chunk() for _ in range(20)]
    import_s = _import_goeritz()

    import workloads

    warm_ops = workloads.generate(workload, seed, warm=True)
    ops = workloads.generate(workload, seed, warm=False) if mode == "run" else None
    runners = {kind: spec.run for kind, spec in workloads.KINDS.items()}
    elasticity = workloads.SPEED_ELASTICITY[workload]
    start = perf_counter()
    _, _, warm_records = _run_pass(warm_ops, runners)
    setup_raw_s = import_s + perf_counter() - start
    chunks += [_timed_chunk() for _ in range(20)]
    result = {
        "setup_s": setup_raw_s * _speed_factor(chunks, elasticity),
        "setup_raw_s": setup_raw_s,
        "import_raw_s": import_s,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    seconds, trace = float(argv[3]), argv[4] == "1"
    result["selftest"] = _self_test(warm_ops, warm_records, workloads.KINDS)
    result["inputs_sha256"] = _input_digest(ops)

    tracer = None
    if trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        traced_runners = {
            kind: tracer.span("op." + kind, run) for kind, run in runners.items()
        }
    pass_s = {False: [], True: []}  # rescaled op time per pass, by traced-or-not
    raw_pass_s, factors = [], []
    latencies_by_op = [[] for _ in ops]  # rescaled, untraced passes only
    failures: list[str] = []
    digests: set[str] = set()
    attempted = cli_bytes = moves = 0
    elapsed = 0.0
    while True:
        traced = trace and len(pass_s[False]) > len(pass_s[True])
        if traced:
            layers.install(tracer, workloads.ENGINE)
        began = perf_counter()
        try:
            latencies, chunks, records = _run_pass(
                ops, traced_runners if traced else runners, tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        elapsed += perf_counter() - began
        factor = _speed_factor(chunks, elasticity)
        factors.append(factor)
        raw_pass_s.append(sum(latencies))
        pass_s[traced].append(sum(latencies) * factor)
        attempted += len(ops)
        if not traced:
            for samples, latency in zip(latencies_by_op, latencies):
                samples.append(latency * factor)
        else:
            for op, (args, out, ok) in zip(ops, records):
                if ok and op.kind.startswith("cli_"):
                    cli_bytes += len(out[1].encode())
                elif ok and op.kind == "contract_loop":
                    moves += len(out.moves)
        pass_failures, digest = _check_pass(ops, records, workloads.KINDS)
        failures += pass_failures
        digests.add(digest)
        del records
        passes = len(pass_s[False]) + len(pass_s[True])
        if elapsed + 0.5 * elapsed / passes >= seconds and (not trace or pass_s[True]):
            break

    # an op's latency is its median over the untraced passes, which drops
    # the stalls that hit one pass; the metrics are taken over these
    per_op = [median(samples) for samples in latencies_by_op]
    tail_pct = _tail_percentile(len(ops))
    result.update({
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(pass_s[False]), "traced": len(pass_s[True])},
        "pass_seconds": pass_s[False],
        "pass_raw_seconds": raw_pass_s,
        "pass_speed_factors": factors,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "outputs_sha256": sorted(digests),
        "ladder": _ladder(ops, per_op),
        "tail": {"percentile": tail_pct, "ops": len(ops),
                 "beyond": round(len(ops) * (100 - tail_pct) / 100)},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if trace:
        overhead = median(pass_s[True]) / median(pass_s[False])
        result["metrics"] = layers.metrics(tracer, len(pass_s[True]), cli_bytes, moves, overhead)
        result["span_ladders"] = layers.ladders(tracer)
        spans_path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}.spans.tsv"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result["metrics"] = {
            "ops_per_s": {"value": len(ops) / sum(per_op), "unit": "1/s"},
            "latency_p50_ms": {"value": harrell_davis(per_op, 0.5) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": harrell_davis(per_op, tail_pct / 100) * 1e3, "unit": "ms"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
