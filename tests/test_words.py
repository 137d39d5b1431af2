"""Free-group word machinery: reduction, cyclic words, primitivity.

The primitivity oracle is cross-checked against an independent one:
in rank 2 the primitive elements with a fixed primitive abelianization
(a, b) form a single conjugacy class, represented by the Christoffel
word of slope b/a with signs adjusted.  Conjugacy of cyclically reduced
words is equality of canonical rotations, so the check is exact.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.words import (
    abelianize,
    cyclic_reduce,
    is_primitive,
    iter_cyclically_reduced,
    mixed_sign_criterion,
    parse_word,
)

ALPHABET = "xXyY"


def random_text(rng, length):
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def inverse(word):
    return word[::-1].swapcase()


def test_parse_format_roundtrip():
    for text in ("", "x", "xy", "xYxY", "xxxyyy"):
        assert parse_word(text) == text


def test_parse_reduces():
    assert parse_word("xX") == ""
    assert parse_word("xyYX") == ""
    assert parse_word("xyYx") == "xx"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("xz")


@pytest.mark.parametrize(
    "func", [parse_word, cyclic_reduce, is_primitive, abelianize, mixed_sign_criterion]
)
@pytest.mark.parametrize("value, type_name", [(12, "int"), (None, "NoneType")])
def test_non_string_words_raise_type_error(func, value, type_name):
    with pytest.raises(TypeError, match=f"^word must be a string, not {type_name}$"):
        func(value)


def test_letter_inverse():
    for letter in ALPHABET:
        assert inverse(inverse(letter)) == letter
        assert inverse(letter) != letter
        # reduction pairs each letter with exactly this inverse
        assert parse_word(letter + inverse(letter)) == ""
        assert parse_word(letter + letter) == letter + letter


def test_reduced_word_inverse():
    rng = random.Random(0)
    for _ in range(200):
        w = parse_word(random_text(rng, rng.randint(0, 12)))
        assert parse_word(w + inverse(w)) == ""


def test_cyclic_reduce_strips_conjugation():
    assert cyclic_reduce(parse_word("xxyX")) == "xy"
    assert cyclic_reduce(parse_word("Yxy")) == "x"
    assert len(cyclic_reduce(parse_word("xyXY"))) == 4


def test_cyclic_word_rotation_invariance():
    rng = random.Random(1)
    for _ in range(200):
        w = cyclic_reduce(parse_word(random_text(rng, rng.randint(1, 10))))
        if len(w) == 0:
            continue
        k = rng.randrange(len(w))
        rotated = cyclic_reduce(w[k:] + w[:k])
        assert rotated == w


def test_conjugation_invariance():
    rng = random.Random(2)
    for _ in range(200):
        w = parse_word(random_text(rng, rng.randint(1, 8)))
        c = parse_word(random_text(rng, rng.randint(0, 6)))
        conj = parse_word(c + w + inverse(c))
        assert cyclic_reduce(conj) == cyclic_reduce(w)


@given(st.text(alphabet=ALPHABET, max_size=30), st.text(alphabet=ALPHABET, max_size=30))
@settings(max_examples=200)
def test_abelianize_is_homomorphic(s, t):
    a = abelianize(parse_word(s))
    b = abelianize(parse_word(t))
    both = abelianize(parse_word(s + t))
    assert both == (a[0] + b[0], a[1] + b[1])


def test_mixed_sign_examples():
    assert mixed_sign_criterion(cyclic_reduce(parse_word("xyXY"))) is True
    assert mixed_sign_criterion(cyclic_reduce(parse_word("xyxY"))) is True
    assert mixed_sign_criterion(cyclic_reduce(parse_word("xy"))) is False
    assert mixed_sign_criterion(cyclic_reduce(parse_word("xY"))) is False
    assert mixed_sign_criterion(cyclic_reduce(parse_word("xxyxy"))) is False
    # the criterion reduces cyclically itself: yxY is a conjugate of x
    assert mixed_sign_criterion("yxY") is False
    with pytest.raises(ValueError):
        mixed_sign_criterion(cyclic_reduce(parse_word("xX")))
    with pytest.raises(ValueError):
        mixed_sign_criterion("yxXY")


def christoffel(a, b):
    """Lower Christoffel word with a letters x and b letters y (a, b >= 0,
    coprime, not both zero), the standard primitive of that abelianization."""
    n = a + b
    out = []
    for t in range(1, n + 1):
        out.append("x" if (t * b) // n == ((t - 1) * b) // n else "y")
    return "".join(out)


def reference_is_primitive(word):
    """Independent oracle: compare against the signed Christoffel word."""
    a, b = abelianize(word)
    if gcd(abs(a), abs(b)) != 1:
        return False
    text = christoffel(abs(a), abs(b))
    if a < 0:
        text = text.replace("x", "X")
    if b < 0:
        text = text.replace("y", "Y")
    return cyclic_reduce(word) == cyclic_reduce(parse_word(text))


def test_christoffel_construction():
    assert christoffel(1, 0) == "x"
    assert christoffel(0, 1) == "y"
    assert christoffel(1, 1) == "xy"
    assert christoffel(2, 1) == "xxy"
    assert christoffel(3, 2) == "xxyxy"


def test_primitive_basic_examples():
    assert is_primitive(parse_word("x"))
    assert is_primitive(parse_word("Y"))
    assert is_primitive(parse_word("xy"))
    assert is_primitive(parse_word("xY"))
    assert is_primitive(parse_word("xxy"))
    assert is_primitive(parse_word("yxY"))  # conjugate of x
    assert not is_primitive(parse_word(""))
    assert not is_primitive(parse_word("xx"))
    assert not is_primitive(parse_word("xyXY"))
    assert not is_primitive(parse_word("xxyy"))


def test_primitive_matches_reference_exhaustively():
    for w in iter_cyclically_reduced(8):
        assert is_primitive(w) == reference_is_primitive(w), w


def test_primitive_matches_reference_on_random_long_words():
    rng = random.Random(3)
    for _ in range(300):
        w = parse_word(random_text(rng, rng.randint(9, 24)))
        assert is_primitive(w) == reference_is_primitive(w), w


def test_primitive_invariant_under_inversion_and_conjugation():
    rng = random.Random(4)
    for _ in range(200):
        w = parse_word(random_text(rng, rng.randint(1, 10)))
        c = parse_word(random_text(rng, rng.randint(0, 5)))
        conj = parse_word(c + w + inverse(c))
        assert is_primitive(w) == is_primitive(inverse(w)) == is_primitive(conj)


def test_enumeration_counts_match_brute_force():
    from collections import Counter

    by_length = Counter(len(w) for w in iter_cyclically_reduced(6))
    assert by_length[0] == 0  # the empty word is not enumerated
    assert list(iter_cyclically_reduced(0)) == list(iter_cyclically_reduced(-3)) == []
    for n in range(1, 7):
        assert by_length[n] == 3**n + 2 + (-1) ** n


def test_enumeration_agrees_with_filter():
    seen = set(iter_cyclically_reduced(4))
    expected = set()
    for n in range(1, 5):
        for code in range(4**n):
            text = "".join(ALPHABET[(code // 4**i) % 4] for i in range(n))
            w = parse_word(text)
            if len(w) == n:
                cyc = cyclic_reduce(w)
                if len(cyc) == n and w == text:
                    expected.add(text)
    # enumeration yields one string per word, not one per conjugacy class
    assert seen == expected


@given(st.text(alphabet=ALPHABET, max_size=40))
@settings(max_examples=300)
def test_reduction_is_idempotent(s):
    w = parse_word(s)
    assert parse_word(w) == w


def test_cyclic_reduce_returns_canonical_rotation():
    assert cyclic_reduce("xX") == ""
    rng = random.Random(5)
    for _ in range(200):
        w = cyclic_reduce(random_text(rng, rng.randint(1, 12)))
        if not w:
            continue
        # cyclically reduced, including across the wrap-around ...
        assert all(b != inverse(a) for a, b in zip(w, w[1:] + w[0]))
        # ... and the least rotation under x < x^-1 < y < y^-1
        rotations = [w[k:] + w[:k] for k in range(len(w))]
        assert w == min(rotations, key=lambda r: [ALPHABET.index(ch) for ch in r])
