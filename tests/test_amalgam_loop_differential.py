"""Differential test: goeritz.amalgam against its former left-to-right loops.

tests/amalgam_loop_reference.py keeps the rewriting loop that appended
and popped a tuple per letter and the per-character invert_word,
tests/amalgam_held_loop_reference.py the later loop that held the last
syllable in locals and carried the tail through every letter,
tests/amalgam_junction_reference.py the mul_nf that cancelled across the
junction by index, tests/amalgam_stack_merge_reference.py the _merge
that kept every syllable on its stack, and tests/amalgam_reference.py
the per-character parse.  The package now parses with str.translate and
str.replace, moves every g to the right end with string operations,
merges syllables only, with one loop for normal_form and mul_nf that
holds the last syllable in a local, and builds its results without
check_syllables.  The references share only NormalForm
and the edge stabilizer with it.  The loops are linear, so the words
here reach the sizes of the long_words benchmark, which the quadratic
rewriter of tests/test_amalgam_differential.py cannot.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amalgam_held_loop_reference as held_ref
import amalgam_junction_reference as junction_ref
import amalgam_loop_reference as loop_ref
import amalgam_reference as ref
import amalgam_stack_merge_reference as stack_ref
from goeritz import amalgam


def _alternating(rng, letters):
    # k blocks of b or B, then d or D, then g
    return "".join(rng.choice("bB") + rng.choice("dD") + "g" for _ in range(letters // 3))


def _assert_rewriting_matches(u, v):
    nu, nv = amalgam.normal_form(u), amalgam.normal_form(v)
    for ref_loop in (loop_ref, held_ref, junction_ref):
        assert nu == ref_loop.normal_form(u)
        assert nv == ref_loop.normal_form(v)
        assert amalgam.mul_nf(nu, nv) == ref_loop.mul_nf(nu, nv)
        assert amalgam.mul_nf(nv, nu) == ref_loop.mul_nf(nv, nu)
        assert amalgam.inv_nf(nu) == ref_loop.inv_nf(nu)
    # the product with the inverse cancels every syllable back to the start
    assert amalgam.mul_nf(nu, amalgam.inv_nf(nu)).is_identity()


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_size_words_match_former_loop(seed):
    rng = random.Random(seed)
    for random_letters, alternating_letters in ((500, 250), (1000, 500), (2000, 1000), (4000, 2000)):
        _assert_rewriting_matches(amalgam.random_word(rng, random_letters),
                                  _alternating(rng, alternating_letters))


def _cancelling_words(rng):
    # pairs of words to multiply: each word that cancels within itself
    # with another of them, then a pair that cancels only across the
    # junction of the product
    k = rng.randint(1, 400)
    words = ["b" * k + "B" * k, "B" * k + "d" + "D" + "b" * k, "bdDB" * k, "d" * (3 * k),
             "D" * (3 * k) + "b", "g" * (2 * k), "gdgd" * k, "bgBg" * 2 * k]
    u = amalgam.random_word(rng, rng.randint(1, 600))
    prefix = amalgam.random_word(rng, rng.randint(0, 300))
    suffix = amalgam.random_word(rng, rng.randint(0, 300))
    words.append(prefix + u + amalgam.invert_word(u) + suffix)
    words.append(prefix + u + loop_ref.invert_word(u) + u + suffix)
    # a syllable merges to zero and the one before it comes back,
    # several levels deep
    nested = amalgam.random_word(rng, 50)
    for _ in range(rng.randint(1, 6)):
        w = amalgam.random_word(rng, rng.randint(1, 40))
        nested = w + nested + amalgam.invert_word(w)
    words.append(prefix + nested + suffix)
    for word in words:
        yield word, rng.choice(words)
    # u.w times w^-1.v, where only w cancels: u ends in its only g, so
    # the first normal form holds the syllables of g w g and a tail with
    # g, which turns those of w^-1 in the second into those of g w^-1 g
    u, w, v = (amalgam.random_word(rng, rng.randint(1, 300)).replace("g", "") for _ in range(3))
    yield u + "g" + w, amalgam.invert_word(w) + v


@pytest.mark.parametrize("seed", range(20))
def test_cancelling_words_match_former_loop(seed):
    rng = random.Random(seed)
    for u, v in _cancelling_words(rng):
        _assert_rewriting_matches(u, v)


def test_cancelling_words_reduce_as_expected():
    assert amalgam.normal_form("b" * 300 + "B" * 300).is_identity()
    assert amalgam.normal_form("bdDB" * 50).is_identity()
    assert amalgam.normal_form("d" * 300).is_identity()
    assert amalgam.normal_form("bdb" + "dD" + "B").syllables == (("P", 1), ("Q", 1))
    assert amalgam.normal_form("bddd" + "b").syllables == (("P", 2),)
    # the held syllable vanishes and the one before it takes its place
    nf = amalgam.mul_nf(amalgam.normal_form("bdb"), amalgam.normal_form("BDdd"))
    assert nf.syllables == (("P", 1), ("Q", 2))


# the stabilizer factors the former loop was handed as tuples, as words:
# d^3, b^2, d^-3, then d^6 g a, b^-2, d^4, d^5
NON_REDUCED_FACTORS = "ddd" + "bb" + "DDD" + "dddddd" + "ga" + "BB" + "dddd" + "ddddd"


def test_non_reduced_factors_match_former_loop():
    # a triple-side power 0 mod 3 adds nothing, with a held syllable or
    # without, at either g bit, with the a bit set
    for held in ("", "bb", "d", "bD"):
        for g in ("", "g"):
            prefix = held + g + "a"
            assert amalgam.normal_form(prefix + "ddd") == amalgam.normal_form(prefix)
            assert amalgam.normal_form(prefix + "DDD") == amalgam.normal_form(prefix)
            word = prefix + NON_REDUCED_FACTORS
            for ref_loop in (loop_ref, held_ref):
                assert amalgam.normal_form(word) == ref_loop.normal_form(word)
    for word in ("ddd", "DDD", "bbdddbb", "gdddg", "bgBgdddb"):
        nf = amalgam.normal_form(word)
        assert nf == held_ref.normal_form(word) == loop_ref.normal_form(word)
        assert nf == amalgam.normal_form(word.replace("ddd", "").replace("DDD", ""))


# hypothesis keeps most texts short, so long words are also built from
# repeated pieces, which brings in runs that cancel
pieces = st.lists(st.tuples(st.text(alphabet="bBgdDat", max_size=40), st.integers(1, 60)),
                  max_size=20)
long_words = st.one_of(
    st.text(alphabet="bBgdDat", max_size=2000),
    pieces.map(lambda parts: "".join(piece * times for piece, times in parts)[:2000]),
)


@given(long_words, long_words)
@settings(max_examples=200, deadline=None)
def test_hypothesis_words_match_former_loop(u, v):
    _assert_rewriting_matches(u, v)


@given(long_words, long_words, st.integers(0, 2000))
@settings(max_examples=200, deadline=None)
def test_results_pass_check_syllables(u, v, cut):
    # the package builds its results without check_syllables, so they are
    # checked here; u + x and x^-1 + v cancel across the junction of a
    # product, and u + (a prefix of u^-1) inside one word
    x = amalgam.invert_word(u)[:cut]
    nu, nv = amalgam.normal_form(u + x), amalgam.normal_form(amalgam.invert_word(x) + v)
    results = [nu, nv, amalgam.normal_form(u + x + v)]
    results += [amalgam.mul_nf(nu, nv), amalgam.mul_nf(nv, nu), amalgam.mul_nf(nu, nu)]
    results += [amalgam.inv_nf(nf) for nf in results]
    results += [amalgam.mul_nf(nu, amalgam.inv_nf(nu)), amalgam.mul_nf(amalgam.inv_nf(nv), nv)]
    for nf in results:
        amalgam.check_syllables(nf.syllables)
        assert type(nf.syllables) is tuple
        assert all(type(s) is tuple for s in nf.syllables)


def _with_stack_merge(func, *args):
    # func run on the package with _merge swapped for the former stack loop
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amalgam, "_merge", stack_ref._merge)
        return func(*args)


@given(long_words, long_words)
@settings(max_examples=200, deadline=None)
def test_word_problem_matches_the_former_stack_merge(u, v):
    nu, nv = amalgam.normal_form(u), amalgam.normal_form(v)
    assert nu == _with_stack_merge(amalgam.normal_form, u)
    for x, y in ((nu, nv), (nv, nu), (nu, amalgam.inv_nf(nu))):
        assert amalgam.mul_nf(x, y) == _with_stack_merge(amalgam.mul_nf, x, y)
    assert amalgam.inv_nf(nu) == _with_stack_merge(amalgam.inv_nf, nu)
    # the first pair is equal and the last two often agree on the tail
    # bits, so each is merged in full
    for x, y in ((u, amalgam.nf_to_word(nu)), (u, v), (u + v, v + u)):
        assert amalgam.are_equal(x, y) == _with_stack_merge(amalgam.are_equal, x, y)


# raw factors of both sides: pair powers that a merge can cancel and
# ones past the shared syllables of -32..32
factors = st.one_of(
    st.tuples(st.just("P"), st.one_of(st.integers(-3, 3), st.integers(-100, 100)).filter(bool)),
    st.tuples(st.just("Q"), st.integers(1, 2)),
)


@given(st.lists(factors, max_size=300), st.lists(factors, max_size=60))
@settings(max_examples=300, deadline=None)
@example([("P", 1), ("Q", 1), ("Q", 2), ("P", -1)], [])
@example([("P", -40), ("Q", 2)], [("P", 40), ("Q", 1)])
@example([("Q", 2), ("P", 3), ("P", -3), ("Q", 1)], [("P", 5), ("Q", 2), ("P", 1)])
def test_merge_matches_the_former_stack_loop(raw, start_raw):
    # the start stack alternates: it is the merge of raw factors
    start = list(stack_ref._merge(start_raw, []))
    merged = amalgam._merge(iter(raw), list(start))
    assert merged == stack_ref._merge(raw, list(start))
    assert type(merged) is tuple
    assert all(type(s) is tuple for s in merged)


def test_merge_keeps_a_non_reduced_factor_as_is():
    for raw, start in (([("Q", 3)], []), ([("P", 0)], [("Q", 1)]), ([("Q", 4), ("Q", 2)], []),
                       ([("P", 1), ("Q", 0), ("Q", 0)], [("Q", 2)]), ([("P", 0), ("P", 0)], [])):
        assert amalgam._merge(raw, list(start)) == stack_ref._merge(raw, list(start))
    assert amalgam._merge([("Q", 3)], []) == (("Q", 3),)
    assert amalgam._merge([("P", 1), ("Q", 0), ("Q", 0)], []) == (("P", 1),)


class _CountingIterator:
    def __init__(self, items):
        self._items = iter(items)
        self.reads = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.reads += 1
        return item


class _CountingList(list):
    appends = pops = 0

    def append(self, item):
        self.appends += 1
        super().append(item)

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


def _gate_words(n):
    rng = random.Random(n)
    yield amalgam.random_word(rng, n)
    yield _alternating(rng, n)
    yield amalgam.random_consequence(rng, n)


@pytest.mark.parametrize("n", [1000 * 2**i for i in range(7)])
def test_merge_does_linear_work(n):
    # one merge step per factor: each factor is read once, and the stack
    # takes at most two appends or pops per factor, two more for the
    # hold, and one pop per syllable it starts with.  The merge runs on
    # the empty stack, and on the syllables of a word that the inverse
    # syllables cancel one by one before the letters come.
    start_nf = amalgam.normal_form(amalgam.random_word(random.Random(n + 1), n // 4))
    cancelling = amalgam.inv_nf(start_nf).syllables
    for word in _gate_words(n):
        letters = [amalgam._LETTER_SYLLABLE[c] for c in amalgam._g_pass(word)[0]]
        for start, raw in (((), letters), (start_nf.syllables, [*cancelling, *letters])):
            factors, stack = _CountingIterator(raw), _CountingList(start)
            merged = amalgam._merge(factors, stack)
            assert factors.reads == len(raw)
            assert next(factors, None) is None
            assert stack.appends + stack.pops <= 2 * (len(raw) + 1) + len(start)
            assert merged == stack_ref._merge(raw, list(start))


def _letters_left(word):
    return len(amalgam._g_pass(amalgam.parse(word))[0])


def _count_merge_reads(monkeypatch) -> list[int]:
    # the factors each _merge call reads, one entry per call, in a list
    # that the caller clears between pairs
    merge, reads = amalgam._merge, []

    def counting_merge(factors, syllables):
        counted = _CountingIterator(factors)
        merged = merge(counted, syllables)
        reads.append(counted.reads)
        return merged

    monkeypatch.setattr(amalgam, "_merge", counting_merge)
    return reads


def test_are_equal_merges_only_the_middles(monkeypatch):
    # p x s against p y s with |p| = |s| = 10,000: the merges read no more
    # letters than the g passes of x and y leave, where merging both whole
    # words reads the 16,000 or so letters p and s leave, twice
    rng = random.Random(10_000)
    p, s = amalgam.random_word(rng, 10_000), amalgam.random_word(rng, 10_000)
    x = amalgam.random_word(rng, 60)
    middles = [("gdg", "D", True), ("ad", "da", True), ("ddd", "", True), ("bd", "db", False),
               (x, x, True), (x, x[:30] + amalgam.random_consequence(rng, 40) + x[30:], True)]
    reads = _count_merge_reads(monkeypatch)
    for x, y, equal in middles:
        reads.clear()
        assert amalgam.are_equal(p + x + s, p + y + s) == equal
        assert len(reads) == 2  # the tail bits agree, so both middles merge
        assert sum(reads) <= _letters_left(x) + _letters_left(y)


def test_one_letter_mutants_merge_at_most_one_letter_per_middle(monkeypatch):
    # a mutant at every position of a 10,000-letter word, each of the four
    # other letters in turn: the cancellation leaves one letter per middle,
    # so the word problem of a mutant pair merges at most one letter each
    word = amalgam.random_word(random.Random(9), 10_000)
    reads = _count_merge_reads(monkeypatch)
    for i, letter in enumerate(word):
        others = amalgam.GENERATOR_ALPHABET.replace(letter, "")
        reads.clear()
        assert not amalgam.are_equal(word, word[:i] + others[i % 4] + word[i + 1:])
        assert len(reads) <= 2 and max(reads, default=0) <= 1


# any code point; lone surrogates are rare among all characters, so they
# are drawn on their own as well
any_text = st.text(st.one_of(
    st.sampled_from("bBgdDat"),
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
))


def _outcome(func, text):
    try:
        return "ok", func(text)
    except ValueError as exc:
        return "ValueError", str(exc)


@given(any_text)
@settings(max_examples=1000)
@example("")
@example("bq")
@example("b\x00d")
@example("d\ud800b")
@example("dD\udfff")
@example("ab\U0001f600t")
@example("\U00010000")
@example("tBa ")
@example("é")
def test_parse_matches_former_parse(text):
    outcome = _outcome(amalgam.parse, text)
    assert outcome == _outcome(ref.parse, text)
    assert type(outcome[1]) is str


@given(any_text)
@settings(max_examples=1000)
@example("bgdt")
@example("b\ud800")
@example("\x00")
@example("aB\U0001f600")
def test_invert_word_matches_former_invert_word(text):
    assert _outcome(amalgam.invert_word, text) == _outcome(loop_ref.invert_word, text)


def test_parse_names_the_first_invalid_character():
    with pytest.raises(ValueError, match=r"^invalid character 'x'; expected one of 'bBgdDat'$"):
        amalgam.parse("bdxyq")
    with pytest.raises(ValueError, match=r"invalid character '\\ud800'"):
        amalgam.parse("a\ud800\x00")
    with pytest.raises(ValueError, match=r"invalid character '\\x00'"):
        amalgam.parse("\x00\ud800")


def test_parse_returns_a_plain_string_for_a_str_subclass():
    class Word(str):
        pass

    assert type(amalgam.parse(Word("bat"))) is str
    assert amalgam.parse(Word("bat")) == "bbgBgbgBg"
    assert type(amalgam.invert_word(Word("bd"))) is str


# the former per-character parse raised TypeError for None, 5 and bytes
# too, but joined a list, tuple or iterator of letters
@pytest.mark.parametrize("value", [None, 5, ["b", "d"], ("b",), b"bd", iter("bd")])
def test_parse_rejects_a_non_string(value):
    with pytest.raises(TypeError, match=r"^word must be a string, not "):
        amalgam.parse(value)
    with pytest.raises(TypeError):
        amalgam.normal_form(value)
    with pytest.raises(TypeError):
        amalgam.invert_word(value)


def test_list_syllables_multiply_like_former_loop():
    # NormalForm keeps a list it is handed as a tuple; products and
    # inverses of it are tuples, as the former loop made them
    u = amalgam.NormalForm([("P", 1), ("Q", 1)])
    v = amalgam.normal_form("dBg")
    for x, y in ((u, u), (v, u), (u, v)):
        product = amalgam.mul_nf(x, y)
        assert product == held_ref.mul_nf(x, y)
        assert type(product.syllables) is tuple
    assert amalgam.inv_nf(u) == held_ref.inv_nf(u)
