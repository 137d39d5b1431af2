"""The word problem against the affine image of tests/affine_image.py.

Words with different affine images are different elements, so
are_equal must answer False for them.  The words b^60, [d, b^60] and
[x, b^(60k)] are the identity in every coset table of
tests/quotients.json, which cannot tell them from 1; the affine image
can, and merging them makes pair syllables past the shared powers
-32..32.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from affine_image import IDENTITY, rho
from finite_quotients import image
from goeritz.amalgam import are_equal, invert_word, normal_form, random_word

# the defining relators, spelled here with a = bgBg and a^-1 = gbgB
RELATORS = {
    "g^2": "gg",
    "d^3": "ddd",
    "(gd)^2": "gdgd",
    "a^2": "bgBg" "bgBg",
    "[a,b]": "bgBg" "b" "gbgB" "B",
    "[a,d]": "bgBg" "d" "gbgB" "D",
}


def _commutator_with_b_power(x: str, k: int) -> str:
    return x + "b" * (60 * k) + invert_word(x) + "B" * (60 * k)


def test_relators_and_inverse_letters_map_to_the_identity():
    for name, word in RELATORS.items():
        assert rho(word) == IDENTITY, name
    for word in ("bB", "Bb", "dD", "Dd", "a", "t"):
        assert rho(word) == IDENTITY, word
    assert rho("b") != IDENTITY and rho("d") != IDENTITY and rho("g") != IDENTITY


def test_words_every_finite_table_misses_are_told_apart():
    words = ["b" * 60, "B" * 120, "b" * 180, "d" + "b" * 60 + "D" + "B" * 60]
    for word in words:
        assert image(word) == image("")
        assert rho(word) != IDENTITY
        assert not are_equal(word, "")
        assert not normal_form(word).is_identity()
    assert normal_form("b" * 60).syllables == (("P", 60),)
    assert not are_equal("b" * 60, "b" * 120)


def test_most_commutators_with_b_powers_are_not_trivial():
    # [x, b^60k] is trivial in the affine image exactly when x's linear
    # part fixes (1, 1), which two of the six linear parts do
    rng = random.Random(31)
    told_apart = 0
    for _ in range(100):
        word = _commutator_with_b_power(random_word(rng, rng.randint(1, 20)), rng.randint(1, 3))
        assert image(word) == image("")
        if rho(word) != IDENTITY:
            assert not are_equal(word, "")
            told_apart += 1
    assert told_apart >= 50


words = st.text(alphabet="bBgdDat", max_size=40)
powers = st.integers(-3, 3).filter(bool)


@given(words, powers, words, powers)
@settings(max_examples=300, deadline=None)
def test_different_affine_images_are_unequal(x, k, y, m):
    u = _commutator_with_b_power(x, k)
    for v in ("", _commutator_with_b_power(y, m), u + y, "b" * (60 * k), y):
        if rho(u) != rho(v):
            assert not are_equal(u, v)
            assert not are_equal(v, u)
