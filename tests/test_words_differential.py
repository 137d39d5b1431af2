"""Differential test: the string-based goeritz.words against the former
int-tuple implementation kept in tests/words_reference.py.

The reference decides primitivity by greedy Whitehead descent and the
package by Christoffel descent; they share no code, so any disagreement
on reduction, canonical rotation,
exponent sums, the mixed-sign certificate, the primitivity verdict or
the enumeration order is a defect in one of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import words_reference as ref
from goeritz import words


@given(st.text(alphabet="xXyY", max_size=40))
@settings(max_examples=500)
def test_string_api_matches_reference(text):
    reduced = ref.parse_word(text)
    cyclic = ref.cyclic_reduce(reduced)
    assert words.parse_word(text) == ref.format_word(reduced)
    assert words.cyclic_reduce(text) == ref.format_word(cyclic)
    assert words.abelianize(text) == ref.abelianize(reduced)
    assert words.is_primitive(text) == ref.is_primitive(reduced)
    if len(cyclic) == 0:
        with pytest.raises(ValueError):
            words.mixed_sign_criterion(text)
    else:
        certified = ref.mixed_sign_criterion(cyclic) is ref.Primitivity.CERTIFIED_NON_PRIMITIVE
        assert words.mixed_sign_criterion(text) == certified


# the letter maps that keep inverse pairs together: swap x and y, invert either
RELABELINGS = tuple(
    str.maketrans("xXyY", target)
    for target in ("xXyY", "XxyY", "xXYy", "XxYy", "yYxX", "YyxX", "yYXx", "YyXx")
)


def _rotate(word, turn):
    turn %= max(len(word), 1)
    return word[turn:] + word[:turn]


def _swap_letters(word, swaps):
    letters = list(word)
    for position, letter in swaps:
        letters[position % len(letters)] = letter
    return "".join(letters)


def _nielsen_image(choices):
    u, v = "x", "y"
    for left in choices:
        u, v = (u + v if left else v + u), u
    return u


_turns = st.integers(0, 400)
_relabel = st.sampled_from(RELABELINGS)
# cyclically reduced, so that its powers do not collapse
_base = (
    st.text(alphabet="xXyY", min_size=1, max_size=10)
    .map(lambda text: ref.format_word(ref.cyclic_reduce(ref.parse_word(text))))
    .filter(bool)
)
_swaps = st.lists(st.tuples(st.integers(0, 400), st.sampled_from("xXyY")), max_size=3)

# words of up to about 400 letters whose rotations share long prefixes,
# so the rotation search meets first differences far past its first few
# letter compares
_long_structured_words = st.one_of(
    st.builds(lambda u, k, t: _rotate(u * k, t), _base, st.integers(2, 40), _turns),
    st.builds(
        lambda u, k, v, t: _rotate(u * k + v, t),
        _base, st.integers(2, 40), st.text(alphabet="xXyY", min_size=1, max_size=10), _turns,
    ),
    st.builds(
        lambda n, swaps, table, t: _rotate(_swap_letters("x" * n + "y", swaps), t).translate(table),
        st.integers(8, 400), _swaps, _relabel, _turns,
    ),
    st.builds(
        lambda choices, table, t: _rotate(_nielsen_image(choices), t).translate(table),
        st.lists(st.booleans(), min_size=1, max_size=12), _relabel, _turns,
    ),
)


@given(_long_structured_words)
@settings(max_examples=300, deadline=None)
def test_canonical_rotation_of_long_structured_words(text):
    expected = ref.format_word(ref.cyclic_reduce(ref.parse_word(text)))
    assert words.cyclic_reduce(text) == expected


@given(st.text(alphabet="xXyYz1 ", max_size=12))
@settings(max_examples=200)
def test_invalid_characters_raise_the_reference_error(text):
    try:
        expected = ref.format_word(ref.parse_word(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            words.parse_word(text)
        assert str(got.value) == str(exc)
    else:
        assert words.parse_word(text) == expected


def test_enumeration_order_matches_reference():
    expected = [ref.format_word(letters) for letters in ref.iter_cyclically_reduced(6)]
    assert list(words.iter_cyclically_reduced(6)) == expected
