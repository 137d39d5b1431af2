"""Size ladders for free-group words: `words.is_primitive`,
`words.cyclic_reduce` and `words.parse_word` time against length, and
the per-call cost of `goeritz primitive --json`.

    python benchmarks/words.py [--out BENCH_words.json] [--parent PARENT.json]

Four word families.  "fibonacci": seeded Nielsen images of x, the
primitive words that (u, v) -> (u v or v u, u) builds from (x, y),
relabelled and rotated, of F(11), F(13), ..., F(25) = 89 ... 75,025
letters.  "long_run": x^n y at n = 1k, 2k, ..., 64k, the shape on which
the former Whitehead search was quadratic.  "random": seeded random
reduced words of 1k ... 64k letters.  "one_pair": the same sizes, a
seeded random reduced word with one inverse pair put in the middle, so
that free reduction cancels exactly that pair.  The last two are not
primitive and get cyclic_reduce and parse_word rows only: "random"
times the search for a pair that is not there, "one_pair" the
per-letter cancellation stack that one pair sends the whole word to.  Each
rung is timed as the minimum of five repeats; the untimed probe of an
is_primitive row asserts that the word is accepted, that of a
parse_word row records the reduced length as its counters.
The rows for layer "words" time the package in src/; the rows for layer
"cli" time `cli.main(["primitive", w, "--json"])` with stdout captured,
on the fibonacci rungs of at most CLI_MAX letters (89 and 233), so the
fixed cost per call shows; the rows for layer "whitehead_reference" time
the greedy Whitehead descent kept in tests/whitehead_reference.py, on
the rungs of at most REFERENCE_MAX letters (up to F(19) = 4,181 and
x^4000 y).  cyclic_reduce finds the least rotation with two candidate
starts in linear time; its weakest family is "random", whose short
common prefixes cost one interpreted round per occurrence of the least
letter, where powers and Christoffel words compare in C.  Timer, record
format and `--parent` are those of benchmarks/ladder.py.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import ladder  # first: it puts src/ and tests/ on sys.path
import whitehead_reference
from goeritz import cli, words

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


def _one_pair(letters: int) -> str:
    w = _random_reduced(letters - 2)
    middle = len(w) // 2
    before, after = w[middle - 1], w[middle]
    # a pair a A whose letters cancel neither neighbour, so it is the only one
    a = next(ch for ch in "xXyY" if ch != before.swapcase() and ch != after)
    return w[:middle] + a + a.swapcase() + w[middle:]


FAMILIES = {
    "fibonacci": (_nielsen_image, NIELSEN_STEPS),
    "long_run": (lambda n: "x" * n + "y", LONG_RUNS),
    "random": (_random_reduced, LONG_RUNS),
    "one_pair": (_one_pair, LONG_RUNS),
}


def _cli_primitive(word: str) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["primitive", word, "--json"]) == 0


def _accepted(func):
    def probe(word: str) -> None:
        assert func(word), word
    return probe


def _reduced_letters(word: str) -> dict:
    return {"reduced_letters": len(words.parse_word(word))}


def _rungs(family: str, top: float):
    make, sizes = FAMILIES[family]
    return ((len(w), w) for w in map(make, sizes) if len(w) <= top)


def _rows():
    primitive = ("fibonacci", "long_run")
    for layer, op, func, families, top in (
        ("words", "is_primitive", words.is_primitive, primitive, math.inf),
        ("words", "cyclic_reduce", words.cyclic_reduce, tuple(FAMILIES), math.inf),
        ("words", "parse_word", words.parse_word, ("random", "one_pair"), math.inf),
        ("cli", "primitive_json", _cli_primitive, ("fibonacci",), CLI_MAX),
        ("whitehead_reference", "is_primitive", whitehead_reference.is_primitive,
         primitive, REFERENCE_MAX),
    ):
        probe = {"cyclic_reduce": None, "parse_word": _reduced_letters}.get(op, _accepted(func))
        for family in families:
            yield layer, f"{op}/{family}", _rungs(family, top), func, probe


if __name__ == "__main__":
    ladder.main(__doc__, "BENCH_words.json", REPEATS, _rows())
