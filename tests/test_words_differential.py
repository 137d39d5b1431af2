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
