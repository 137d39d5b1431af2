"""Differential test: goeritz.amalgam.are_equal against the former one.

tests/amalgam_equal_reference.py keeps the are_equal that ran the g pass
and the merge on both whole words.  The package now drops the longest
common prefix and suffix of the two parsed words first and works on the
middles alone, which is exact by left and right cancellation: p x s and
p y s are equal exactly when x and y are.  The pairs here are of the
shapes where the two could part: long shared ends around short middles,
the padding and one-letter mutant rules of perfbench's word ops, pairs
that are equal or unequal only through the macros a and t, and middles
that are empty, or overlap because the shorter word is all prefix, and
independent words whose g passes leave the same tail bits, which the
reference told apart by its power sums and the package now merges.  On
commutators [x, b^(60k)], which every coset table of tests/quotients.json
sends to 1, a "not equal" is also checked against the affine image of
tests/affine_image.py, which imports nothing from goeritz.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import amalgam_equal_reference as ref
from affine_image import rho
from goeritz import amalgam

LETTERS = "bBgdDat"
MACROS = ("a", "t", "bgBg", "gbgB")  # four spellings of the central involution


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _assert_matches_reference(u, v):
    answer = amalgam.are_equal(u, v)
    assert answer == ref.are_equal(u, v)
    assert amalgam.are_equal(v, u) == answer
    return answer


# a seeded generator: hypothesis draws the seed and not each letter, so
# long ends are as cheap and as common as short ones
rngs = st.integers(0, 2**32 - 1).map(random.Random)
ends = st.builds(_text, rngs, st.integers(0, 2000))
short = st.text(alphabet=LETTERS, max_size=12)
RELATORS = ("gg", "ddd", "DDD", "gdgd", "aa", "tt", "abaB", "adaD", "tbtB")


@st.composite
def middles(draw):
    # two short words, often equal through a relator or unequal by one letter
    x = draw(short)
    kind = draw(st.sampled_from(("free", "relator", "letter")))
    if kind == "free":
        return x, draw(short)
    i = draw(st.integers(0, len(x)))
    if kind == "relator":
        return x, x[:i] + draw(st.sampled_from(RELATORS)) + x[i:]
    return x, x[:i] + draw(st.sampled_from(LETTERS)) + x[i + 1:]


@given(ends, middles(), ends)
@settings(max_examples=300, deadline=None)
@example("bd", ("gdg", "D"), "Bd")
@example("b" * 50, ("", "b"), "b" * 50)
@example("", ("a", "bgBg"), "")
def test_long_shared_ends_around_short_middles(p, xy, s):
    x, y = xy
    _assert_matches_reference(p + x + s, p + y + s)


def _padded(rng: random.Random, word: str, count: int, max_len: int) -> str:
    # perfbench's padding rule: relator consequences at random positions
    for _ in range(count):
        i = rng.randint(0, len(word))
        word = word[:i] + amalgam.random_consequence(rng, max_len) + word[i:]
    return word


def _mutant(rng: random.Random, word: str) -> str:
    # perfbench's mutant rule: one letter changed to another of b B g d D
    i = rng.randrange(len(word))
    letter = rng.choice([c for c in amalgam.GENERATOR_ALPHABET if c != word[i]])
    return word[:i] + letter + word[i + 1:]


@given(rngs, st.integers(1, 4000))
@settings(max_examples=100, deadline=None)
def test_perfbench_padded_and_mutant_pairs(rng, length):
    word = amalgam.random_word(rng, length)
    padded = _padded(rng, word, 2 + length // 500, 60)
    assert _assert_matches_reference(word, padded)
    assert not _assert_matches_reference(word, _mutant(rng, word))
    assert not _assert_matches_reference(padded, _mutant(rng, padded))


@given(rngs, st.integers(100, 4000), st.integers(100, 4000))
@settings(max_examples=100, deadline=None)
def test_unrelated_words_with_the_same_tail_bits(rng, m, n):
    # v is drawn again until its tail bits are u's, so that the pair is
    # decided by the merged syllables alone
    u = _text(rng, m)
    v = _text(rng, n)
    while ref._g_pass(v)[1:] != ref._g_pass(u)[1:]:
        v = _text(rng, n)
    assert not _assert_matches_reference(u, v)


@st.composite
def macro_pairs(draw):
    # u spells a macro one way and v another, or v drops it: equal when
    # an even number of macros are dropped, since a is a central involution
    p, s = draw(ends), draw(ends)
    pieces = draw(st.lists(st.tuples(st.text(alphabet="bBdDg", max_size=4),
                                     st.sampled_from(MACROS), st.sampled_from(MACROS + ("",))),
                           min_size=1, max_size=6))
    u = p + "".join(free + one for free, one, _ in pieces) + s
    v = p + "".join(free + other for free, _, other in pieces) + s
    return u, v, sum(other == "" for _, _, other in pieces) % 2 == 0


@given(macro_pairs())
@settings(max_examples=200, deadline=None)
@example(("a", "t", True))
@example(("ba", "b", False))
@example(("bad", "btd", True))
def test_pairs_equal_or_unequal_through_the_macros(pair):
    u, v, equal = pair
    assert _assert_matches_reference(u, v) == equal


@given(ends, st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
@example("", 0, 0)
@example("bdb", 0, 2)
def test_empty_and_overlapping_middles(w, i, j):
    # the same word; one word a prefix or suffix of the other; powers of
    # one period, where the prefix of the shorter word leaves no suffix
    assert _assert_matches_reference(w, w)
    assert _assert_matches_reference(w + "bB" * i, w)
    assert _assert_matches_reference("ddd" * j + w, w)
    _assert_matches_reference(w + w[:i], w)
    _assert_matches_reference(w[i:] + w, w)
    for period in ("b", "bd", "gdg", "a"):
        _assert_matches_reference(period * i, period * j)
        _assert_matches_reference(period * i + w, period * j + w)


def _commutator_with_b_power(x: str, k: int) -> str:
    return x + "b" * (60 * k) + amalgam.invert_word(x) + "B" * (60 * k)


def _assert_separated_by_rho(u, v):
    # the affine image is a homomorphism, so different images mean
    # different elements, whatever the normal forms say
    answer = _assert_matches_reference(u, v)
    separated = rho(u) != rho(v)
    assert not (answer and separated)
    return answer, separated


@given(rngs, short, st.integers(1, 3), short, st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_commutator_pairs_agree_with_the_affine_image(rng, x, k, y, m):
    p, s = _text(rng, rng.randint(0, 500)), _text(rng, rng.randint(0, 500))
    c = _commutator_with_b_power(x, k)
    for v in (p + s, p + _commutator_with_b_power(y, m) + s, p + c + y + s):
        _assert_separated_by_rho(p + c + s, v)


def test_most_commutator_pairs_are_told_apart_by_the_affine_image():
    # every False answer here is checked against rho, and rho confirms
    # most of them; a pair rho cannot separate is left to the reference
    rng = random.Random(32)
    false_answers = confirmed = 0
    for _ in range(100):
        p, s = amalgam.random_word(rng, 2000), amalgam.random_word(rng, 2000)
        x = amalgam.random_word(rng, rng.randint(1, 20))
        answer, separated = _assert_separated_by_rho(
            p + _commutator_with_b_power(x, rng.randint(1, 3)) + s, p + s)
        if not answer:
            false_answers += 1
            confirmed += separated
    assert false_answers >= 50 and confirmed >= 50
