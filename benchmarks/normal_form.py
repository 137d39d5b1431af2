"""Size ladders for the word problem: syllable rewriting time against length.

    python benchmarks/normal_form.py [--out BENCH_normal_form.json] [--parent PARENT.json]

Two word families, seeded random words over b B g d D and the
alternating word (bdg)^k cut to length, each at 1k, 2k, ..., 64k
letters, timed as the minimum of five repeats.  The rows for layer
"amalgam" time the package in src/: `normal_form` of the word,
`inv_nf` of its normal form, and `mul_nf` of its normal form times that
inverse, which cancels every syllable; the normal forms of the last two
are made before the timing.  The row "mul_nf/partial" times `mul_nf` of
the normal forms of u.w and w^-1.v, three seeded random words of n/3
letters each, where only the syllables of w cancel at the junction.
The row "mul_nf/act" times the products tree.act makes: a seeded batch
of n products, each the normal form of a word of 1 to 24 letters times
a representative of a vertex of ball(4, 2), at n = 1k, 2k, 4k and 8k.
The rows "are_equal/mutant", "are_equal/padded", "are_equal/wrapped"
and "are_equal/unrelated" time `are_equal` of a random word and, in
turn, the word with one letter changed to another of b B g d D, the
word with 2 + n/500 random relator consequences of at most 60 letters
inserted, the word between two such consequences, the first of which
starts with another letter than the word and the second ends with
another, and an independent random word of the same length whose g
pass leaves the same tail bits.  The first two are the mutant and
padding rules of perfbench's word ops.  Both pairs share their ends, so
`are_equal` cancels all but a middle: one letter for the mutant, which
is merged or told apart by its tail bits, and the span of the inserted
consequences for the padded pair, which is merged.  The wrapped pair is
equal and shares no end, so it is merged in full, and so is the
unrelated pair, which no perfbench op makes.
The rows "merge/random" and "merge/alternating" time `_merge` alone on
the b, B, d, D letters the g pass leaves of each word.  The rows for
layer "amalgam_reference" time the former quadratic rewriter kept in
tests/amalgam_reference.py, on the rungs up to 4k only, and, as
"merge/*" on every rung and the same letters, the former stack loop of
`_merge` kept in tests/amalgam_stack_merge_reference.py, so that both
merge cores are timed in one process.  Timer, record format and `--parent` are those of
benchmarks/ladder.py.
"""

from __future__ import annotations

import math
import random

import ladder  # first: it puts src/ and tests/ on sys.path
import amalgam_reference
import amalgam_stack_merge_reference
from goeritz import amalgam, tree

LADDER = tuple(1000 * 2**i for i in range(7))  # 1k .. 64k letters
REFERENCE_MAX = 4000
ACT_BATCHES = (1000, 2000, 4000, 8000)
ACT_BALL = (4, 2)  # the ball perfbench's act ops run on
REPEATS = 5
SEED = 0


def _word(family: str, n: int) -> str:
    if family == "random":
        return amalgam.random_word(random.Random(SEED + n), n)
    return ("bdg" * (n // 3 + 1))[:n]


def _rungs(family: str, top: float):
    return ((n, _word(family, n)) for n in LADDER if n <= top)


def _letter_rungs(family: str):
    return ((n, amalgam._g_pass(word)[0]) for n, word in _rungs(family, math.inf))


def _merging(merge):
    return lambda letters: merge(map(amalgam._LETTER_SYLLABLE.__getitem__, letters), [])


def _nf_rungs(family: str):
    return ((n, amalgam.normal_form(word)) for n, word in _rungs(family, math.inf))


def _product_rungs(family: str):
    return ((n, (nf, amalgam.inv_nf(nf))) for n, nf in _nf_rungs(family))


def _partial_rungs():
    for n in LADDER:
        u, w, v = (amalgam.random_word(random.Random(SEED + n + i), n // 3) for i in (1, 2, 3))
        yield n, (amalgam.normal_form(u + w), amalgam.normal_form(amalgam.invert_word(w) + v))


def _mutant(rng: random.Random, word: str) -> str:
    i = rng.randrange(len(word))
    letter = rng.choice([c for c in amalgam.GENERATOR_ALPHABET if c != word[i]])
    return word[:i] + letter + word[i + 1:]


def _padded(rng: random.Random, word: str) -> str:
    for _ in range(2 + len(word) // 500):
        i = rng.randint(0, len(word))
        word = word[:i] + amalgam.random_consequence(rng, 60) + word[i:]
    return word


def _consequence_without(rng: random.Random, index: int, letter: str) -> str:
    while True:
        consequence = amalgam.random_consequence(rng, 60)
        if consequence[index] != letter:
            return consequence


def _wrapped(rng: random.Random, word: str) -> str:
    return _consequence_without(rng, 0, word[0]) + word + _consequence_without(rng, -1, word[-1])


def _unrelated(rng: random.Random, word: str) -> str:
    while True:
        other = amalgam.random_word(rng, len(word))
        if amalgam._g_pass(other)[1:] == amalgam._g_pass(word)[1:]:
            return other


def _equal_rungs(other):
    for n, word in _rungs("random", math.inf):
        yield n, (word, other(random.Random(SEED + n + 4), word))


def _act_rungs():
    reps = [amalgam.NormalForm(rep) for _, rep in tree.ball(*ACT_BALL).vertices]
    for n in ACT_BATCHES:
        rng = random.Random(SEED + n)
        yield n, [(amalgam.normal_form(amalgam.random_word(rng, rng.randint(1, 24))),
                   rng.choice(reps)) for _ in range(n)]


def _rows():
    for layer, func, top in (("amalgam", amalgam.normal_form, math.inf),
                             ("amalgam_reference", amalgam_reference.normal_form, REFERENCE_MAX)):
        for family in ("random", "alternating"):
            yield layer, f"normal_form/{family}", _rungs(family, top), func, None
    for family in ("random", "alternating"):
        for layer, merge in (("amalgam", amalgam._merge),
                             ("amalgam_reference", amalgam_stack_merge_reference._merge)):
            yield layer, f"merge/{family}", _letter_rungs(family), _merging(merge), None
    for family in ("random", "alternating"):
        yield "amalgam", f"inv_nf/{family}", _nf_rungs(family), amalgam.inv_nf, None
        yield ("amalgam", f"mul_nf/{family}", _product_rungs(family),
               lambda pair: amalgam.mul_nf(*pair), None)
    for name, other in (("mutant", _mutant), ("padded", _padded), ("wrapped", _wrapped),
                        ("unrelated", _unrelated)):
        yield ("amalgam", f"are_equal/{name}", _equal_rungs(other),
               lambda pair: amalgam.are_equal(*pair), None)
    yield "amalgam", "mul_nf/partial", _partial_rungs(), lambda pair: amalgam.mul_nf(*pair), None
    yield ("amalgam", "mul_nf/act", _act_rungs(),
           lambda pairs: [amalgam.mul_nf(u, v) for u, v in pairs], None)


if __name__ == "__main__":
    ladder.main(__doc__, "BENCH_normal_form.json", REPEATS, _rows())
