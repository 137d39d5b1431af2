"""Free reduction as goeritz.words did it before it found inverse pairs
by substring search: one regex scan for a pair, then a per-letter
cancellation stack over the whole word.  `parse_word` and
`_free_reduce` are kept verbatim, with the constants they read, as the
differential oracle of tests/test_words_free_reduce_differential.py.
"""

from __future__ import annotations

import re

_INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_INVERSE_PAIR = re.compile("xX|Xx|yY|Yy")
_DROP_LETTERS = str.maketrans("", "", "xXyY")


def parse_word(text: str) -> str:
    """Validate a word and freely reduce it.

    >>> parse_word("xyY")
    'x'
    """
    if not isinstance(text, str):
        raise TypeError(f"word must be a string, not {type(text).__name__}")
    junk = text.translate(_DROP_LETTERS)
    if junk:
        raise ValueError(f"invalid character {junk[0]!r}; expected one of 'xXyY'")
    return _free_reduce(text)


def _free_reduce(word: str) -> str:
    if not _INVERSE_PAIR.search(word):
        return word
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)
