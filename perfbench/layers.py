"""Which `goeritz` functions make up each layer, how the traced run wraps
them, and the per-layer metrics derived from the trace.

Every value is per traced pass over the workload's op list, so counts
repeat exactly between runs with the same seed.  A layer the workload
does not exercise reports 0 (scaling exponents: 0 when fewer than two
size rungs were seen).
"""

from __future__ import annotations

from goeritz import amalgam, cli, contract, farey, simplicial, stabilizers, tree, words

from tracing import Tracer, log_log_slope

# (owner, attribute, span name, size of the call or None)
SPANS = (
    (amalgam, "normal_form", "amalgam.normal_form", lambda a, r: len(a[0])),
    (amalgam, "mul_nf", "amalgam.mul_nf", None),
    (amalgam, "inv_nf", "amalgam.inv_nf", None),
    (tree, "ball", "tree.ball", lambda a, r: len(r.vertices)),
    (tree, "is_tree", "tree.is_tree", None),
    (tree, "act", "tree.act", None),
    (tree, "act_edge", "tree.act_edge", None),
    (tree, "quotient", "tree.quotient", None),
    (words, "parse_word", "words.parse_word", lambda a, r: len(a[0])),
    (words, "cyclic_reduce", "words.cyclic_reduce", None),
    (words, "is_primitive", "words.is_primitive", lambda a, r: len(a[0])),
    (simplicial.Complex, "__init__", "simplicial.complex_init", None),
    (simplicial.Complex, "barycentric", "simplicial.barycentric", lambda a, r: len(r.simplices())),
    (simplicial, "remove_open_stars", "simplicial.remove_open_stars", None),
    (simplicial.Complex, "is_flag", "simplicial.is_flag", None),
    (simplicial.Complex, "is_connected", "simplicial.is_connected", None),
    (farey, "build", "farey.build", lambda a, r: len(r.vertices())),
    (farey, "verify_axioms", "farey.verify_axioms", None),
    (contract, "contract_loop", "contract.contract_loop", lambda a, r: len(a[3])),
    (contract, "validate", "contract.validate", None),
    (contract.HomotopyCertificate, "to_json", "contract.certificate_json", None),
    (contract.HomotopyCertificate, "from_json_dict", "contract.certificate_json", None),
    (cli, "main", "cli.main", None),
)

# sub-microsecond calls: counted per parent span, never timed
COUNTERS = (
    (stabilizers.PairStabilizer, "__mul__", "stabilizers.mul"),
    (stabilizers.TripleStabilizer, "__mul__", "stabilizers.mul"),
    (stabilizers.EdgeStabilizer, "__mul__", "stabilizers.mul"),
    (stabilizers.PairStabilizer, "decompose", "stabilizers.decompose"),
    (stabilizers.TripleStabilizer, "decompose", "stabilizers.decompose"),
    (farey, "blocking", "farey.blocking"),
)

ORACLES = ("adjacent", "remoteness", "blocking")


def install(tracer: Tracer, engine_oracles) -> None:
    """Wrap every traced function where `goeritz` and the benchmark refer
    to it, and the oracles the benchmark hands to `contract_loop`."""
    for owner, attr, name, size in SPANS:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                tracer.patch_attr(owner, attr, classmethod(tracer.span(name, original.__func__, size)))
            else:
                tracer.patch_attr(owner, attr, tracer.span(name, original, size))
        else:
            original = getattr(owner, attr)
            tracer.patch_function(original, tracer.span(name, original, size))
    for owner, attr, name in COUNTERS:
        if isinstance(owner, type):
            tracer.patch_attr(owner, attr, tracer.counter(name, owner.__dict__[attr]))
        else:
            original = getattr(owner, attr)
            tracer.patch_function(original, tracer.counter(name, original))
    for attr in ORACLES:
        tracer.patch_attr(
            engine_oracles, attr,
            tracer.timed_aggregate("oracle." + attr, getattr(engine_oracles, attr)),
        )
    tracer.watch_gc()


# name -> unit, in the order they are reported
UNITS = {
    "stabilizers.mul.calls": "count",
    "stabilizers.decompose.calls": "count",
    "amalgam.normal_form.calls": "count",
    "amalgam.normal_form.self_ms": "ms",
    "amalgam.normal_form.letters": "count",
    "amalgam.normal_form.ns_per_letter": "ns",
    "amalgam.normal_form.scaling_exponent": "exponent",
    "amalgam.mul_nf.calls": "count",
    "amalgam.mul_nf.self_ms": "ms",
    "amalgam.inv_nf.calls": "count",
    "amalgam.inv_nf.self_ms": "ms",
    "tree.ball.calls": "count",
    "tree.ball.self_ms": "ms",
    "tree.ball.vertices": "count",
    "tree.ball.us_per_vertex": "us",
    "tree.is_tree.self_ms": "ms",
    "tree.act.calls": "count",
    "tree.act.self_ms": "ms",
    "tree.act_edge.self_ms": "ms",
    "tree.quotient.self_ms": "ms",
    "words.parse_word.self_ms": "ms",
    "words.cyclic_reduce.self_ms": "ms",
    "words.is_primitive.calls": "count",
    "words.is_primitive.self_ms": "ms",
    "words.is_primitive.letters": "count",
    "words.is_primitive.scaling_exponent": "exponent",
    "simplicial.complex_init.self_ms": "ms",
    "simplicial.barycentric.self_ms": "ms",
    "simplicial.barycentric.simplices_out": "count",
    "simplicial.remove_open_stars.self_ms": "ms",
    "simplicial.is_flag.self_ms": "ms",
    "simplicial.is_connected.self_ms": "ms",
    "farey.build.self_ms": "ms",
    "farey.build.scaling_exponent": "exponent",
    "farey.verify_axioms.self_ms": "ms",
    "farey.oracles.self_ms": "ms",
    "farey.blocking.calls": "count",
    "contract.contract_loop.calls": "count",
    "contract.contract_loop.self_ms": "ms",
    "contract.contract_loop.scaling_exponent": "exponent",
    "contract.moves": "count",
    "contract.oracle_calls.adjacent": "count",
    "contract.oracle_calls.remoteness": "count",
    "contract.oracle_calls.blocking": "count",
    "contract.remoteness_calls_per_move": "ratio",
    "contract.validate.self_ms": "ms",
    "contract.certificate_json.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "python.gc.collections": "count",
    "python.gc.pause_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

SCALING = {
    "amalgam.normal_form.scaling_exponent": "amalgam.normal_form",
    "words.is_primitive.scaling_exponent": "words.is_primitive",
    "farey.build.scaling_exponent": "farey.build",
    "contract.contract_loop.scaling_exponent": "contract.contract_loop",
}


def metrics(tracer: Tracer, passes: int, cli_bytes: int, moves: int, overhead: float) -> dict:
    """Per-layer metrics, each averaged over `passes` traced passes.

    `cli_bytes` and `moves` are totals the benchmark read off the op
    results (CLI stdout, certificates of its own contract_loop ops)."""
    per = 1.0 / passes
    totals = tracer.totals()
    calls = lambda name: totals[name][0] * per  # noqa: E731
    ms = lambda name: totals[name][1] * 1e3 * per  # noqa: E731
    size = lambda name: totals[name][2] * per  # noqa: E731
    letters = size("amalgam.normal_form")
    vertices = size("tree.ball")
    per_move = totals["oracle.remoteness"][0] / moves if moves else 0.0
    values = {
        "stabilizers.mul.calls": calls("stabilizers.mul"),
        "stabilizers.decompose.calls": calls("stabilizers.decompose"),
        "amalgam.normal_form.calls": calls("amalgam.normal_form"),
        "amalgam.normal_form.self_ms": ms("amalgam.normal_form"),
        "amalgam.normal_form.letters": letters,
        "amalgam.normal_form.ns_per_letter": ms("amalgam.normal_form") * 1e6 / letters if letters else 0.0,
        "amalgam.mul_nf.calls": calls("amalgam.mul_nf"),
        "amalgam.mul_nf.self_ms": ms("amalgam.mul_nf"),
        "amalgam.inv_nf.calls": calls("amalgam.inv_nf"),
        "amalgam.inv_nf.self_ms": ms("amalgam.inv_nf"),
        "tree.ball.calls": calls("tree.ball"),
        "tree.ball.self_ms": ms("tree.ball"),
        "tree.ball.vertices": vertices,
        "tree.ball.us_per_vertex": ms("tree.ball") * 1e3 / vertices if vertices else 0.0,
        "tree.is_tree.self_ms": ms("tree.is_tree"),
        "tree.act.calls": calls("tree.act"),
        "tree.act.self_ms": ms("tree.act"),
        "tree.act_edge.self_ms": ms("tree.act_edge"),
        "tree.quotient.self_ms": ms("tree.quotient"),
        "words.parse_word.self_ms": ms("words.parse_word"),
        "words.cyclic_reduce.self_ms": ms("words.cyclic_reduce"),
        "words.is_primitive.calls": calls("words.is_primitive"),
        "words.is_primitive.self_ms": ms("words.is_primitive"),
        "words.is_primitive.letters": size("words.is_primitive"),
        "simplicial.complex_init.self_ms": ms("simplicial.complex_init"),
        "simplicial.barycentric.self_ms": ms("simplicial.barycentric"),
        "simplicial.barycentric.simplices_out": size("simplicial.barycentric"),
        "simplicial.remove_open_stars.self_ms": ms("simplicial.remove_open_stars"),
        "simplicial.is_flag.self_ms": ms("simplicial.is_flag"),
        "simplicial.is_connected.self_ms": ms("simplicial.is_connected"),
        "farey.build.self_ms": ms("farey.build"),
        "farey.verify_axioms.self_ms": ms("farey.verify_axioms"),
        "farey.oracles.self_ms": sum(ms("oracle." + o) for o in ORACLES),
        "farey.blocking.calls": calls("farey.blocking") + calls("oracle.blocking"),
        "contract.contract_loop.calls": calls("contract.contract_loop"),
        "contract.contract_loop.self_ms": ms("contract.contract_loop"),
        "contract.moves": moves * per,
        "contract.oracle_calls.adjacent": calls("oracle.adjacent"),
        "contract.oracle_calls.remoteness": calls("oracle.remoteness"),
        "contract.oracle_calls.blocking": calls("oracle.blocking"),
        "contract.remoteness_calls_per_move": per_move,
        "contract.validate.self_ms": ms("contract.validate"),
        "contract.certificate_json.self_ms": ms("contract.certificate_json"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.output_bytes": cli_bytes * per,
        "python.gc.collections": tracer.gc_collections * per,
        "python.gc.pause_ms": tracer.gc_pause_s * 1e3 * per,
        "trace.overhead_ratio": overhead,
    }
    for metric, span in SCALING.items():
        values[metric] = log_log_slope(tracer.size_ladder(span))
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def ladders(tracer: Tracer) -> dict:
    """Self-time size ladder of every span that records a size."""
    return {
        name: [
            {"size": size, "calls": count, "median_self_ms": ms}
            for size, count, ms in tracer.size_ladder(name)
        ]
        for _, _, name, size in SPANS
        if size is not None
    }
