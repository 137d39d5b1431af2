"""The four workloads as fixed, seeded op lists.

An op names its kind, its rung on the workload's size ladder, its
arguments and what the benchmark expects, derived by `checks` and never
by the code under test.  An argument `Ref(key)` stands for the result of
an earlier op of the same pass that stored it under `key`, so chained
calls (normal form, then its inverse, then the product) see the real
output of the previous step.

Each op kind has four functions:

    run(*args)                 the call into `goeritz` that is timed
    check(op, args, result)    True when the result is right
    corrupt(op, args, result)  a deliberately wrong result for the
                               checker self-test
    render(result)             canonical text for the output digest

Library calls go through module attributes (`amalgam.normal_form`), so
the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from math import gcd
from types import SimpleNamespace
from typing import Callable

from goeritz import amalgam, cli, contract, farey, simplicial, tree, words

import checks


@dataclass(frozen=True)
class Ref:
    key: str


@dataclass(frozen=True)
class Op:
    kind: str
    size: int
    args: tuple
    expect: object = None
    out: str | None = None


@dataclass(frozen=True)
class Kind:
    run: Callable
    check: Callable
    corrupt: Callable
    render: Callable = str


# the oracles handed to contract_loop; the traced run wraps them here
ENGINE = SimpleNamespace(
    adjacent=farey.adjacent, remoteness=farey.remoteness, blocking=farey.blocking
)


def run_cli(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_payload(result) -> dict:
    return json.loads(result[1])


def _with_payload(result, **changes) -> tuple[int, str]:
    payload = _cli_payload(result)
    payload.update(changes)
    return result[0], json.dumps(payload)


def _nf_hom(nf) -> tuple[int, int]:
    return checks.hom(amalgam.nf_to_word(nf))


def _spell_payload(payload: dict) -> str:
    """The benchmark's own spelling of a `nf --json` payload as a word."""
    parts = []
    for s in payload["syllables"]:
        power = s["power"]
        if s["factor"] == "P":
            parts.append(("b" if power > 0 else "B") * abs(power))
        else:
            parts.append("d" * power)
    tail = payload["tail"]
    return "".join(parts) + ("" if tail == "1" else tail)


def _off_by_d(nf):
    """A normal form whose image differs from that of `nf` by d."""
    return amalgam.mul_nf(nf, amalgam.normal_form("d"))


def _not(op, args, result):
    return not result


def _is_expected(op, args, result):
    return result is op.expect


def _render_cli(result) -> str:
    return f"{result[0]}\n{result[1]}"


def _render_cert(cert) -> str:
    return json.dumps(cert.to_json_dict(), sort_keys=True)


def _check_act(op, args, result):
    left, right = result
    return left == right


def _corrupt_act(op, args, result):
    pool = args[0].vertices if op.kind == "act" else args[0].edges
    other = pool[0] if result[0] != pool[0] else pool[1]
    return result[0], other


def _act(ball, index, u, v):
    x = ball.vertices[index]
    return tree.act(u, tree.act(v, x)), tree.act(u + v, x)


def _act_edge(ball, index, u, v):
    x = ball.edges[index]
    return tree.act_edge(u, tree.act_edge(v, x)), tree.act_edge(u + v, x)


def _contract(loop):
    return contract.contract_loop(
        ENGINE.adjacent, ENGINE.remoteness, ENGINE.blocking, loop, farey.BASE
    )


def _certificate_round_trip(cert):
    text = cert.to_json()
    return contract.HomotopyCertificate.from_json_dict(json.loads(text), farey.parse_slope)


def _payload_move(move: dict) -> SimpleNamespace:
    parse = checks.parse_slope_text
    if move["type"] == "subdivide":
        return SimpleNamespace(pos=move["pos"], insert=parse(move["insert"]))
    return SimpleNamespace(pos=move["pos"], old=parse(move["old"]), new=parse(move["new"]))


def _check_cli_contract(op, args, result):
    payload = _cli_payload(result)
    cert = payload["certificate"]
    loop = [checks.parse_slope_text(s) for s in payload["loop"]]
    return (
        result[0] == 0
        and payload["validated"] is True
        and loop[0] == checks.parse_slope_text("inf")
        and checks.replay_certificate(
            loop,
            [_payload_move(m) for m in cert["moves"]],
            [checks.parse_slope_text(s) for s in cert["final"]],
        )
    )


def _check_cli_farey(op, args, result):
    payload = _cli_payload(result)
    return (
        result[0] == 0
        and (payload["vertices"], payload["edges"], payload["triangles"]) == op.expect
        and payload["is_flag"] is True
        and payload["is_connected"] is True
        and payload["axioms"]["ok"] is True
        and payload["axioms"]["samples"] == int(args[5])
    )


KINDS: dict[str, Kind] = {
    # -- syllable rewriting ------------------------------------------------
    "normal_form": Kind(
        run=lambda w: amalgam.normal_form(w),
        check=lambda op, args, r: _nf_hom(r) == op.expect,
        corrupt=lambda op, args, r: _off_by_d(r),
    ),
    "consequence_nf": Kind(
        run=lambda w: amalgam.normal_form(w),
        check=lambda op, args, r: r.is_identity() and _nf_hom(r) == checks.HOM_IDENTITY,
        corrupt=lambda op, args, r: _off_by_d(r),
    ),
    "inv_nf": Kind(
        run=lambda u: amalgam.inv_nf(u),
        check=lambda op, args, r: _nf_hom(r) == op.expect,
        corrupt=lambda op, args, r: _off_by_d(r),
    ),
    "mul_nf": Kind(
        run=lambda u, v: amalgam.mul_nf(u, v),
        check=lambda op, args, r: r.is_identity() and _nf_hom(r) == checks.HOM_IDENTITY,
        corrupt=lambda op, args, r: _off_by_d(r),
    ),
    "are_equal_padded": Kind(
        run=lambda u, v: amalgam.are_equal(u, v), check=_is_expected, corrupt=_not
    ),
    "are_equal_mutant": Kind(
        run=lambda u, v: amalgam.are_equal(u, v), check=_is_expected, corrupt=_not
    ),
    "cli_nf": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == 0
        and _cli_payload(r)["word"] == args[1]
        and checks.hom(_spell_payload(_cli_payload(r))) == op.expect,
        corrupt=lambda op, args, r: _with_payload(r, syllables=_cli_payload(r)["syllables"][1:]),
        render=_render_cli,
    ),
    "cli_eq": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == (0 if op.expect else 1)
        and _cli_payload(r)["equal"] is op.expect,
        corrupt=lambda op, args, r: _with_payload(r, equal=not op.expect),
        render=_render_cli,
    ),
    # -- coset tree ----------------------------------------------------------
    "ball": Kind(
        run=lambda radius, power: tree.ball(radius, power),
        check=lambda op, args, r: len(set(r.vertices)) == len(r.vertices) == op.expect
        and len(set(r.edges)) == len(r.edges) == op.expect - 1,
        corrupt=lambda op, args, r: replace(r, vertices=r.vertices[:-1]),
        render=lambda r: f"{len(r.vertices)} {len(r.edges)} {r.vertices[-1]} {r.edges[-1]}",
    ),
    "is_tree": Kind(run=lambda b: tree.is_tree(b), check=_is_expected, corrupt=_not),
    "quotient": Kind(
        run=lambda b: tree.quotient(b),
        check=lambda op, args, r: r.ok
        and r.vertices == (tree.PAIR, tree.TRIPLE)
        and len(r.edges) == 1
        and len(r.witnesses) == op.expect,
        corrupt=lambda op, args, r: replace(r, witnesses=r.witnesses[:-1]),
        render=lambda r: repr((r.vertices, r.edges, r.witnesses)),
    ),
    "act": Kind(run=_act, check=_check_act, corrupt=_corrupt_act),
    "act_edge": Kind(run=_act_edge, check=_check_act, corrupt=_corrupt_act),
    "cli_tree": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == 0
        and _cli_payload(r)["vertices"] == op.expect
        and _cli_payload(r)["edges"] == op.expect - 1
        and _cli_payload(r)["is_tree"] is True,
        corrupt=lambda op, args, r: _with_payload(r, vertices=op.expect + 1),
        render=_render_cli,
    ),
    "cli_quotient": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == 0
        and _cli_payload(r)["ok"] is True
        and len(_cli_payload(r)["witnesses"]) == op.expect,
        corrupt=lambda op, args, r: _with_payload(r, witnesses=_cli_payload(r)["witnesses"][1:]),
        render=_render_cli,
    ),
    "cli_stabilizers": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == 0
        and _cli_payload(r)["ok"] is True
        and len(set(_cli_payload(r)["triple_elements"])) == 12
        and len(set(_cli_payload(r)["edge_elements"])) == 4,
        corrupt=lambda op, args, r: _with_payload(r, triple_elements=_cli_payload(r)["triple_elements"][1:]),
        render=_render_cli,
    ),
    # -- simplicial and farey ------------------------------------------------
    "farey_build": Kind(
        run=lambda n: farey.build(n),
        check=lambda op, args, r: checks.complex_counts(r) == op.expect,
        corrupt=lambda op, args, r: farey.build(args[0] - 1),
        render=lambda r: repr(checks.complex_counts(r)),
    ),
    "is_flag": Kind(run=lambda c: c.is_flag(), check=_is_expected, corrupt=_not),
    "is_connected": Kind(run=lambda c: c.is_connected(), check=_is_expected, corrupt=_not),
    "barycentric": Kind(
        run=lambda c: c.barycentric(),
        check=lambda op, args, r: checks.complex_counts(r) == op.expect,
        corrupt=lambda op, args, r: args[0],
        render=lambda r: repr(checks.complex_counts(r)),
    ),
    "remove_open_stars": Kind(
        run=lambda sub, c: simplicial.remove_open_stars(sub, c.vertices()),
        check=lambda op, args, r: checks.complex_counts(r) == op.expect,
        corrupt=lambda op, args, r: args[0],
        render=lambda r: repr(checks.complex_counts(r)),
    ),
    "verify_axioms": Kind(
        run=lambda n, samples, seed: farey.verify_axioms(n, samples, seed),
        check=lambda op, args, r: r.ok and (r.n, r.samples) == args[:2],
        corrupt=lambda op, args, r: replace(r, violations=["injected violation"]),
        render=lambda r: repr((r.n, r.samples, r.violations)),
    ),
    # -- contraction ---------------------------------------------------------
    "contract_loop": Kind(
        run=_contract,
        check=lambda op, args, r: checks.replay_certificate(args[0], r.moves, r.final),
        corrupt=lambda op, args, r: contract.HomotopyCertificate(r.moves, r.final[:-1]),
        render=_render_cert,
    ),
    "validate": Kind(
        run=lambda cert, loop: contract.validate(farey.adjacent, cert, loop, farey.BASE),
        check=lambda op, args, r: r.ok is True,
        corrupt=lambda op, args, r: contract.ValidationReport(False, 0, "injected"),
        render=lambda r: repr((r.ok, r.failed_move, r.reason)),
    ),
    "certificate_json": Kind(
        run=_certificate_round_trip,
        check=lambda op, args, r: (r.moves, r.final) == (args[0].moves, args[0].final),
        corrupt=lambda op, args, r: contract.HomotopyCertificate(r.moves, r.final[:-1]),
        render=_render_cert,
    ),
    "cli_farey": Kind(
        run=run_cli,
        check=_check_cli_farey,
        corrupt=lambda op, args, r: _with_payload(r, edges=_cli_payload(r)["edges"] + 1),
        render=_render_cli,
    ),
    "cli_contract": Kind(
        run=run_cli,
        check=_check_cli_contract,
        corrupt=lambda op, args, r: _with_payload(
            r, certificate={**_cli_payload(r)["certificate"],
                            "final": _cli_payload(r)["certificate"]["final"][:-1]}
        ),
        render=_render_cli,
    ),
    # -- free-group words ----------------------------------------------------
    "is_primitive": Kind(
        run=lambda text: words.is_primitive(words.cyclic_reduce(words.parse_word(text))),
        check=_is_expected,
        corrupt=_not,
    ),
    "cli_primitive": Kind(
        run=run_cli,
        check=lambda op, args, r: r[0] == (0 if op.expect else 1)
        and _cli_payload(r)["primitive"] is op.expect,
        corrupt=lambda op, args, r: _with_payload(r, primitive=not op.expect),
        render=_render_cli,
    ),
}


# -- input generators -------------------------------------------------------


def _mutant(rng: random.Random, word: str) -> str:
    """Change one letter.  The five letters have five distinct images in
    S3 x Z, so the mutant is never equal to the original."""
    i = rng.randrange(len(word))
    ch = rng.choice([c for c in amalgam.GENERATOR_ALPHABET if c != word[i]])
    mutant = word[:i] + ch + word[i + 1:]
    if checks.hom(mutant) == checks.hom(word):
        raise AssertionError("mutant has the same image as the original")
    return mutant


def _padded(rng: random.Random, word: str, count: int, max_len: int) -> str:
    """Insert `count` relator consequences at random positions."""
    for _ in range(count):
        i = rng.randint(0, len(word))
        word = word[:i] + amalgam.random_consequence(rng, max_len) + word[i:]
    return word


def _alternating_word(rng: random.Random, letters: int) -> str:
    """A (bdg)^k-type word: k blocks of b or B, then d or D, then g."""
    return "".join(rng.choice("bB") + rng.choice("dD") + "g" for _ in range(letters // 3))


def _word_ops(rng, key, word, size, eq_kinds) -> list[Op]:
    image = checks.hom(word)
    ops = [
        Op("normal_form", size, (word,), image, out=key + ".nf"),
        Op("inv_nf", size, (Ref(key + ".nf"),), checks.hom_inverse(image), out=key + ".inv"),
        Op("mul_nf", size, (Ref(key + ".nf"), Ref(key + ".inv"))),
    ]
    if "are_equal_padded" in eq_kinds:
        padded = _padded(rng, word, 2 + len(word) // 500, 60)
        ops.append(Op("are_equal_padded", size, (word, padded), True))
    if "are_equal_mutant" in eq_kinds:
        ops.append(Op("are_equal_mutant", size, (word, _mutant(rng, word)), False))
    return ops


# (letters, words per pass).  (bdg)^k costs about 2.5x a random word of
# the same length, so its ladder starts lower.  are_equal runs on every rung
# but the top one, where it would take a third of the pass; fewer passes
# would leave each op too few repeats on a noisy host.
RANDOM_LADDER = ((500, 8), (1000, 4), (2000, 2), (4000, 1))
ALTERNATING_LADDER = ((250, 8), (500, 4), (1000, 2), (2000, 1))
EQ_KINDS = ("are_equal_padded", "are_equal_mutant")


def long_words(rng: random.Random, warm: bool) -> list[Op]:
    if warm:
        word = amalgam.random_word(rng, 100)
        ops = _word_ops(rng, "warm", word, 100, EQ_KINDS)
        cli_words = [amalgam.random_word(rng, 50)]
    else:
        ops = []
        for family, ladder in (("random", RANDOM_LADDER), ("alternating", ALTERNATING_LADDER)):
            for rung, (letters, count) in enumerate(ladder):
                for i in range(count):
                    if family == "random":
                        word = amalgam.random_word(rng, letters)
                    else:
                        word = _alternating_word(rng, letters)
                    eq = (EQ_KINDS[i % 2],) if rung < len(ladder) - 1 else ()
                    ops += _word_ops(rng, f"{family}-{letters}-{i}", word, letters, eq)
        cli_words = [amalgam.random_word(rng, 500) for _ in range(2)]
    for word in cli_words:
        size = len(word)
        ops.append(Op("cli_nf", size, ("nf", word, "--json"), checks.hom(word)))
        ops.append(Op("cli_eq", size, ("eq", word, _padded(rng, word, 2, 60), "--json"), True))
        ops.append(Op("cli_eq", size, ("eq", word, _mutant(rng, word), "--json"), False))
    return ops


BALL_LADDER = ((4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3))
ACT_BALL = (4, 2)  # act and act_edge run on every vertex and edge of this ball
SHORT_CONSEQUENCES = 400
SHORT_EQ_PAIRS = 100


def _short_eq_ops(rng: random.Random, pairs: int) -> list[Op]:
    ops = []
    for _ in range(pairs):
        word = amalgam.random_word(rng, rng.randint(20, 120))
        ops.append(Op("are_equal_padded", len(word), (word, _padded(rng, word, 2, 40)), True))
        ops.append(Op("are_equal_mutant", len(word), (word, _mutant(rng, word)), False))
    return ops


def _ball_ops(radius: int, power: int) -> list[Op]:
    key = f"ball-{radius}-{power}"
    vertices = checks.ball_vertex_count(radius, power)
    return [
        Op("ball", vertices, (radius, power), vertices, out=key),
        Op("is_tree", vertices, (Ref(key),), True),
        Op("quotient", vertices, (Ref(key),), min(20, vertices)),
    ]


def _act_ops(rng: random.Random, radius: int, power: int, limit: int | None) -> list[Op]:
    key = f"ball-{radius}-{power}"
    vertices = checks.ball_vertex_count(radius, power)
    ops = []
    for kind, count in (("act", vertices), ("act_edge", vertices - 1)):
        for index in range(count if limit is None else limit):
            u = amalgam.random_word(rng, rng.randint(1, 24))
            v = amalgam.random_word(rng, rng.randint(1, 24))
            ops.append(Op(kind, len(u) + len(v), (Ref(key), index, u, v)))
    return ops


def _tree_cli_ops(radius: int, power: int) -> list[Op]:
    vertices = checks.ball_vertex_count(radius, power)
    flags = ("--radius", str(radius), "--max-power", str(power), "--json")
    return [
        Op("cli_tree", vertices, ("tree",) + flags, vertices),
        Op("cli_quotient", vertices, ("quotient",) + flags, min(20, vertices)),
        Op("cli_stabilizers", 12, ("stabilizers", "--json")),
    ]


def short_words(rng: random.Random, warm: bool) -> list[Op]:
    consequences = 1 if warm else SHORT_CONSEQUENCES
    ops = []
    for _ in range(consequences):
        word = amalgam.random_consequence(rng, 200)
        ops.append(Op("consequence_nf", len(word), (word,)))
    ops += _short_eq_ops(rng, 1 if warm else SHORT_EQ_PAIRS)
    if warm:
        ops += _ball_ops(2, 2) + _act_ops(rng, 2, 2, limit=1) + _tree_cli_ops(2, 2)
    else:
        for radius, power in BALL_LADDER:
            ops += _ball_ops(radius, power)
        ops += _act_ops(rng, *ACT_BALL, limit=None) + _tree_cli_ops(*ACT_BALL)
    return ops


# (max denominator, complexes per pass).  verify_axioms(80) alone would take
# over half of a pass, leaving each op too few repeats, so the ladder is
# 16/32/64.  The work of a loop op varies with the loop's shape; enough
# complexes, whose work the seed does not change, put the median and the
# p90 latency among them.
FAREY_LADDER = ((16, 8), (32, 4), (64, 1))
LOOP_LADDER = ((50, 12), (100, 4), (200, 2), (400, 1))  # (positions, loops per pass)
AXIOM_SAMPLES = 200


def _farey_ops(rng: random.Random, n: int, key: str, samples: int) -> list[Op]:
    v, e, f = checks.farey_counts(n)
    return [
        Op("farey_build", n, (n,), (v, e, f), out=key),
        Op("is_flag", n, (Ref(key),), True),
        Op("is_connected", n, (Ref(key),), True),
        Op("barycentric", n, (Ref(key),), (v + e + f, 2 * e + 6 * f, 6 * f), out=key + ".sd"),
        Op("remove_open_stars", n, (Ref(key + ".sd"), Ref(key)), (e + f, 3 * f, 0)),
        Op("verify_axioms", n, (n, samples, rng.randrange(1 << 30))),
    ]


LOOP_SEGMENT = 50


def _loop_ops(rng: random.Random, positions: int, key: str) -> list[Op]:
    # A based loop of `positions` positions made of seeded based loops of
    # about LOOP_SEGMENT positions, each starting at infinity.  The moves a
    # loop needs vary a lot with its shape, and a sum over segments varies
    # less from seed to seed than one long walk.  Each walk adds a short
    # parent descent home, so it aims a little under the segment length.
    segment = min(positions, LOOP_SEGMENT)
    loop = []
    for _ in range(positions // segment):
        loop += farey.random_based_loop(rng.randrange(1 << 30), 50, segment - 3, segment - 3)
    return [
        Op("contract_loop", positions, (loop,), out=key),
        Op("validate", positions, (Ref(key), loop)),
        Op("certificate_json", positions, (Ref(key),)),
    ]


def _slope_cli_ops(rng: random.Random, n: int, samples: int) -> list[Op]:
    seed = str(rng.randrange(1 << 30))
    return [
        Op("cli_farey", n, ("farey", "--n", str(n), "--verify-axioms", "--samples",
                            str(samples), "--seed", seed, "--json"), checks.farey_counts(n)),
        Op("cli_contract", 0, ("contract", "--seed", str(rng.randrange(1 << 30)), "--json")),
    ]


def slope_fixture(rng: random.Random, warm: bool) -> list[Op]:
    if warm:
        return (_farey_ops(rng, 10, "warm", 50) + _loop_ops(rng, 20, "warm.cert")
                + _slope_cli_ops(rng, 5, 20))
    ops = []
    for n, count in FAREY_LADDER:
        for i in range(count):
            ops += _farey_ops(rng, n, f"farey-{n}-{i}", AXIOM_SAMPLES)
    for positions, count in LOOP_LADDER:
        for i in range(count):
            ops += _loop_ops(rng, positions, f"loop-{positions}-{i}")
    for _ in range(2):
        ops += _slope_cli_ops(rng, 16, 100)
    return ops


def _random_reduced(rng: random.Random, letters: int) -> str:
    out: list[str] = []
    while len(out) < letters:
        ch = rng.choice("xXyY")
        if not out or out[-1] != checks.free_inverse(ch):
            out.append(ch)
    return "".join(out)


def _nielsen_image(rng: random.Random, steps: int) -> str:
    """A primitive word: the image of x under `steps` seeded Nielsen
    transformations (u, v) -> (uv or vu, u), then a random letter
    permutation or inversion and a rotation (a conjugation).  The words
    stay positive before relabelling, so the length is the Fibonacci
    number F(steps + 2) whatever the seed, and so is the descent work."""
    u, v = "x", "y"
    for _ in range(steps):
        u, v = (u + v if rng.random() < 0.5 else v + u), u
    if rng.random() < 0.5:
        u = u.translate(str.maketrans("xy", "yx"))
    for letter in "xy":
        if rng.random() < 0.5:
            u = u.replace(letter, letter.upper())
    turn = rng.randrange(len(u))
    return u[turn:] + u[:turn]


def _cyclically_reduced(rng: random.Random, letters: int) -> str:
    while True:
        word = _random_reduced(rng, letters)
        if checks.free_cyclic_reduce(word) == word:
            return word


def _non_primitive(rng: random.Random, letters: int, variant: int) -> str:
    if variant == 0:  # a square or cube is never primitive
        k = 2 + (letters % 2)
        return _cyclically_reduced(rng, letters // k) * k
    if variant == 1:  # exponent sums with a common factor
        word = _random_reduced(rng, letters)
        while gcd(*checks.exponent_sums(word)) == 1:
            word = checks.free_reduce(word + rng.choice("xXyY"))
        return word
    while True:  # cyclically reduced with both x and X, or both y and Y
        word = _cyclically_reduced(rng, letters)
        if ("x" in word and "X" in word) or ("y" in word and "Y" in word):
            return word


# (Nielsen steps, words per pass): lengths F(steps + 2) = 89 ... 1597
PRIMITIVE_LADDER = ((9, 24), (10, 24), (11, 20), (12, 14), (13, 10), (14, 6), (15, 4))


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def primitivity(rng: random.Random, warm: bool) -> list[Op]:
    ladder = ((6, 2),) if warm else PRIMITIVE_LADDER
    ops = []
    for steps, count in ladder:
        letters = _fibonacci(steps + 2)
        for i in range(count):
            if i % 2 == 0:
                ops.append(Op("is_primitive", letters, (_nielsen_image(rng, steps),), True))
            else:
                word = _non_primitive(rng, letters, (i // 2) % 3)
                ops.append(Op("is_primitive", letters, (word,), False))
    for i in range(1 if warm else 4):
        if i % 2 == 0:
            ops.append(Op("cli_primitive", 233, ("primitive", _nielsen_image(rng, 11), "--json"), True))
        else:
            word = _non_primitive(rng, 233, i // 2 % 3)
            ops.append(Op("cli_primitive", 233, ("primitive", word, "--json"), False))
    return ops


# How strongly each workload's ops slow down when the calibration chunk in
# child.py does: the exponent that made the pass times of ten seeds per
# workload steadiest, on two sets of runs.  The bytecode-bound workloads
# track the chunk; primitivity spends its time in C-level tuple slicing
# (the quadratic rotation) and slows about half as much.
SPEED_ELASTICITY = {
    "long_words": 1.0,
    "short_words": 1.0,
    "slope_fixture": 0.85,
    "primitivity": 0.5,
}

WORKLOADS = {
    "long_words": long_words,
    "short_words": short_words,
    "slope_fixture": slope_fixture,
    "primitivity": primitivity,
}


def generate(workload: str, seed: int, warm: bool) -> list[Op]:
    """The op list of one pass (or the warm-up list), fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}:{'warm' if warm else 'timed'}")
    return WORKLOADS[workload](rng, warm)
