"""Differential test: free reduction in goeritz.words, which finds inverse
pairs by four substring searches, against the regex-scan version kept
verbatim in tests/words_regex_reference.py.

Results, error types and error texts must agree on dense random words,
on reduced words with one or two inverse pairs put in at any position
(the first and the last included), on cancelling blocks u u^-1 inside
reduced words, and on invalid characters and non-str input.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import words_regex_reference as ref
from goeritz import words

LETTERS = "xXyY"
PAIRS = ("xX", "Xx", "yY", "Yy")


def inverse(word):
    return word[::-1].swapcase()


def _outcome(func, value):
    try:
        return "ok", func(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _check(text):
    assert _outcome(words.parse_word, text) == _outcome(ref.parse_word, text), text
    if isinstance(text, str) and not text.strip(LETTERS):
        assert words._free_reduce(text) == ref._free_reduce(text), text


_reduced = st.text(alphabet=LETTERS, max_size=60).map(ref.parse_word)


@given(st.text(alphabet=LETTERS, max_size=200))
@settings(max_examples=500)
@example("")
@example("xX")
@example("xXxXyYYy")
def test_dense_random_words_match_the_regex_scan(text):
    _check(text)


@given(_reduced, st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(PAIRS)),
                          min_size=1, max_size=2))
@settings(max_examples=500)
def test_reduced_words_with_inserted_pairs_match_the_regex_scan(word, inserts):
    for position, pair in inserts:
        position %= len(word) + 1
        word = word[:position] + pair + word[position:]
    _check(word)


@pytest.mark.parametrize("first", PAIRS)
@pytest.mark.parametrize("second", (None,) + PAIRS)
def test_pairs_at_every_position_match_the_regex_scan(first, second):
    # a reduced word holding all twelve reduced two-letter blocks; a pair
    # goes in at each position, 0 and the end included
    base = "xyXYxxYYXXyyXyxY"
    assert ref.parse_word(base) == base
    for i in range(len(base) + 1):
        once = base[:i] + first + base[i:]
        _check(once)
        if second is not None:
            for j in range(len(once) + 1):
                _check(once[:j] + second + once[j:])


@given(_reduced, _reduced.filter(bool), st.integers(min_value=0))
@settings(max_examples=500)
@example("", "x", 0)
@example("yx", "xy", 2)
def test_cancelling_blocks_match_the_regex_scan(word, u, position):
    position %= len(word) + 1
    _check(word[:position] + u + inverse(u) + word[position:])
    _check(word[:position] + inverse(u) + u + word[position:] + u + inverse(u))


@given(st.text(alphabet="xXyYz1 é", max_size=20))
@settings(max_examples=300)
@example("z")
@example("xXz")
@example("xyé")
def test_invalid_characters_match_the_regex_scan(text):
    _check(text)


@pytest.mark.parametrize("value", [12, None, b"xy", ["x", "X"], ("x",), 1.5])
def test_non_string_input_matches_the_regex_scan(value):
    _check(value)
    assert _outcome(words.parse_word, value)[0] is TypeError

