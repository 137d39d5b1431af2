"""Size ladders for the slope fixture: `contract.contract_loop`, the JSON
round trip of its certificates, `contract.validate`, `farey.build`,
`farey.verify_axioms`, the farey oracles, and the simplicial layer's
`barycentric`, `remove_open_stars`, `is_connected` and `is_acyclic_graph`
on `farey.build(n)`, time against size.

    python benchmarks/slope.py [--out BENCH_slope.json] [--parent PARENT.json]

contract_loop runs on based loops of 100, 200, ..., 12,800 positions,
each the concatenation of seeded 50-position `farey.random_based_loop`
segments (the shape the benchmark's slope_fixture workload uses);
build(n) and verify_axioms(n, 200, seed) run at n = 16, 32, 64, 128;
barycentric, remove_open_stars on the subdivision and is_connected run
on the complex with the simplices of build(n), made by each layer's
public `Complex` outside the timing, at n = 16, ..., 256;
is_acyclic_graph runs on that subdivision with the open stars of the
original vertices removed, also made outside the timing.  Each rung is
timed as the minimum of three repeats; the untimed probe counts the
oracle calls, the simplices or the certificate's moves and bytes.
certificate_json times the certificate round trip on the contract_loop
certificates of the same loops: `to_json`, then `json.loads`, then
`HomotopyCertificate.from_json_dict(..., farey.parse_slope)` (the
certificate is made outside the timing).
validate replays the same certificates against their loops with
`farey.adjacent` (loop and certificate made outside the timing); its
probe counts the moves and the adjacency calls.
oracles times a fixed seeded batch of ORACLE_BATCH slopes p/q with
denominator q = 2^8, 2^10, ..., 2^20 and odd p: per slope v one
`parents(v)`, three `adjacent` calls (v and a parent, the two parents,
the two children v + parent) and two `blocking` calls (one parent, which
is unblocked, and the two children, which block); its probe counts the
calls.  The row for layer "farey_reference" runs the same batch through
the former oracles kept in tests/farey_reference.py.
The rows for layer "slope" time the package in src/; the rows for layer
"slope_reference" time the former pair-scanning and recompute-every-move
code kept in tests/slope_reference.py, on the rungs up to REFERENCE_MAX.
The rows for layer "simplicial_reference" time the former simplicial
layer kept in tests/simplicial_reference.py on the same complexes:
`barycentric`, `remove_open_stars`, `is_connected`, `is_acyclic_graph`
(breadth-first search there, union-find in src/), and "build_closed", which is
`farey.build(n)` with its simplices closed under faces again by that
layer's `Complex.__init__`, as `farey.build` did before it handed its
list over as built.  For build and verify_axioms a rung doubles n and
so about quadruples the vertex count, so linear work there shows as
exponent about 2; the same holds for the simplicial rows.  Timer,
record format and `--parent` are those of benchmarks/ladder.py.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import ladder  # first: it puts src/ and tests/ on sys.path
import farey_reference
import simplicial_reference
import slope_reference
from goeritz import contract, farey, simplicial

LOOP_LADDER = (100, 200, 400, 800, 1600, 3200, 6400, 12800)  # positions
FAREY_LADDER = (16, 32, 64, 128)  # max denominator
SIMPLICIAL_LADDER = FAREY_LADDER + (256,)
ORACLE_LADDER = tuple(1 << k for k in range(8, 21, 2))  # denominator
ORACLE_BATCH = 1000
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


def _rungs(ladder_, make=lambda n: n, top: float = math.inf):
    return ((n, make(n)) for n in ladder_ if n <= top)


def _slope_rows(layer: str, contract_loop, build, verify_axioms, top: dict):
    """Rows for one slope-fixture implementation, on the rungs up to top[op]."""

    def contract_counters(loop: list) -> dict:
        calls: Counter = Counter()
        oracles = [
            _counted(calls, name, oracle)
            for name, oracle in (("adjacent", farey.adjacent), ("remoteness", farey.remoteness),
                                 ("blocking", farey.blocking))
        ]
        moves = len(contract_loop(*oracles, loop, farey.BASE).moves)
        return {
            "positions": len(loop),
            "moves": moves,
            "oracle_calls": dict(sorted(calls.items())),
            "remoteness_calls_per_move": calls["remoteness"] / max(moves, 1),
        }

    def axioms(n: int):
        return verify_axioms(n, AXIOM_SAMPLES, SEED)

    def axiom_counters(n: int) -> dict:
        report = axioms(n)
        return {"samples": report.samples, "violations": len(report.violations)}

    return [
        (layer, "contract_loop", _rungs(LOOP_LADDER, _loop, top.get("contract_loop", math.inf)),
         lambda loop: contract_loop(farey.adjacent, farey.remoteness, farey.blocking,
                                    loop, farey.BASE),
         contract_counters),
        (layer, "build", _rungs(FAREY_LADDER, top=top.get("build", math.inf)), build,
         lambda n: _sizes(build(n))),
        (layer, "verify_axioms", _rungs(FAREY_LADDER, top=top.get("verify_axioms", math.inf)),
         axioms, axiom_counters),
    ]


def _simplicial_rows(layer: str, module):
    """Rows for one simplicial layer, on the simplices of farey.build(n)."""

    def built(n: int):
        return module.Complex(farey.build(n).simplices())

    def subdivided(n: int) -> tuple:
        complex_ = built(n)
        return complex_.barycentric(), complex_.vertices()

    def pared(inputs: tuple):
        return module.remove_open_stars(*inputs)

    rows = [
        (layer, "barycentric", _rungs(SIMPLICIAL_LADDER, built),
         lambda c: c.barycentric(), lambda c: _sizes(c.barycentric())),
        (layer, "remove_open_stars", _rungs(SIMPLICIAL_LADDER, subdivided),
         pared, lambda inputs: _sizes(pared(inputs))),
        (layer, "is_connected", _rungs(SIMPLICIAL_LADDER, built),
         lambda c: c.is_connected(), lambda c: {**_sizes(c), "connected": c.is_connected()}),
        (layer, "is_acyclic_graph", _rungs(SIMPLICIAL_LADDER, lambda n: pared(subdivided(n))),
         lambda c: c.is_acyclic_graph(),
         lambda c: {**_sizes(c), "acyclic": c.is_acyclic_graph()}),
    ]
    if module is simplicial_reference:
        rows.append((layer, "build_closed", _rungs(SIMPLICIAL_LADDER), built,
                     lambda n: _sizes(built(n))))
    return rows


def _oracle_rows(layer: str, module):
    """The oracles row for farey or farey_reference (module)."""

    def batch(q: int) -> list:
        rng = random.Random(SEED + q)
        out = []
        for _ in range(ORACLE_BATCH):
            v = farey.Slope(rng.randrange(-q, q) | 1, q)  # odd p: lowest terms
            a, b = farey.parents(v)
            kids = (farey.mediant(a, v), farey.mediant(b, v))
            out.append(tuple(module.Slope(u.p, u.q) for u in (v, a, b) + kids))
        return out

    def calls(items: list, parents, adjacent, blocking) -> None:
        for v, a, b, c, d in items:
            parents(v)
            adjacent(v, a)
            adjacent(a, b)
            adjacent(c, d)
            blocking((a,), v)
            blocking((c, d), v)

    def counters(items: list) -> dict:
        counts: Counter = Counter()
        calls(items, *(_counted(counts, name, getattr(module, name))
                       for name in ("parents", "adjacent", "blocking")))
        return {"slopes": len(items), "calls": dict(sorted(counts.items()))}

    return [(layer, "oracles", _rungs(ORACLE_LADDER, batch),
             lambda items: calls(items, module.parents, module.adjacent, module.blocking),
             counters)]


def _certified(positions: int) -> tuple:
    loop = _loop(positions)
    return loop, contract.contract_loop(farey.adjacent, farey.remoteness, farey.blocking,
                                        loop, farey.BASE)


def _validate(certified: tuple, adjacent=farey.adjacent) -> contract.ValidationReport:
    loop, cert = certified
    return contract.validate(adjacent, cert, loop, farey.BASE)


def _validate_counters(certified: tuple) -> dict:
    calls: Counter = Counter()
    report = _validate(certified, _counted(calls, "adjacent", farey.adjacent))
    assert report.ok, report.reason
    moves = len(certified[1].moves)
    return {"positions": len(certified[0]), "moves": moves, "oracle_calls": dict(calls),
            "adjacent_calls_per_move": calls["adjacent"] / max(moves, 1)}


def _round_trip(cert: contract.HomotopyCertificate) -> contract.HomotopyCertificate:
    return contract.HomotopyCertificate.from_json_dict(json.loads(cert.to_json()),
                                                       farey.parse_slope)


def _certificate_counters(cert: contract.HomotopyCertificate) -> dict:
    assert _round_trip(cert) == cert
    return {"moves": len(cert.moves), "final": len(cert.final),
            "json_bytes": len(cert.to_json())}


def _rows():
    yield from _slope_rows("slope", contract.contract_loop, farey.build, farey.verify_axioms, {})
    yield ("slope", "certificate_json", _rungs(LOOP_LADDER, lambda n: _certified(n)[1]),
           _round_trip, _certificate_counters)
    yield "slope", "validate", _rungs(LOOP_LADDER, _certified), _validate, _validate_counters
    yield from _oracle_rows("slope", farey)
    yield from _simplicial_rows("slope", simplicial)
    yield from _slope_rows("slope_reference", slope_reference.contract_loop,
                           slope_reference.build, slope_reference.verify_axioms, REFERENCE_MAX)
    yield from _simplicial_rows("simplicial_reference", simplicial_reference)
    yield from _oracle_rows("farey_reference", farey_reference)


if __name__ == "__main__":
    ladder.main(__doc__, "BENCH_slope.json", REPEATS, _rows())
