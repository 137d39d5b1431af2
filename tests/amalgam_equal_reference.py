# The word problem of goeritz.amalgam.are_equal from before it cancelled
# the common prefix and suffix of the two words: the g pass of each whole
# word, the four invariants it leaves, then the merge of all the letters
# left.  Kept verbatim with _g_pass, _power_sums and _syllables as a
# differential oracle for tests/test_amalgam_equal_differential.py.  It
# shares only parse with the package; _merge is the former stack loop of
# tests/amalgam_stack_merge_reference.py and the tables are its own copies.
"""The former are_equal, which merged both whole words."""

from __future__ import annotations

from amalgam_stack_merge_reference import _merge
from goeritz.amalgam import parse

_LETTER_SYLLABLE = {"b": ("P", 1), "B": ("P", -1), "d": ("Q", 1), "D": ("Q", 2)}
_SWAP_D = str.maketrans("dD", "Dd")


def _g_pass(word: str) -> tuple[str, int, int]:
    """The b, B, d, D letters a word leaves once every g has moved to
    the right end, and the g and a bits of the tail it leaves there."""
    # the segments after an odd number of g's are conjugated by g, which
    # swaps d and D and leaves one t per b or B behind
    parts = parse(word).split("g")
    a = 0
    if len(parts) > 1:
        odd = "g".join(parts[1::2])
        a = (odd.count("b") + odd.count("B")) & 1
        parts[1::2] = odd.translate(_SWAP_D).split("g")
    return "".join(parts), (len(parts) - 1) & 1, a


def _power_sums(letters: str) -> tuple[int, int]:
    # the b-power sum and, mod 3, the d-power sum of letters in b, B, d, D,
    # from three counts: the letters that are none of b, d, D are B's
    b, d, D = letters.count("b"), letters.count("d"), letters.count("D")
    return 2 * b + d + D - len(letters), (d - D) % 3


def _syllables(letters: str) -> tuple[tuple[str, int], ...]:
    return _merge(map(_LETTER_SYLLABLE.__getitem__, letters), [])


def are_equal(u: str, v: str) -> bool:
    """Word problem: do two generator words define the same element?

    Words that differ in the g bit, the a bit, the b-power sum or the
    d-power sum mod 3 of the g pass are unequal without any merging:

    >>> are_equal("ddd", "d")
    False

    Words that agree on all four are merged and their syllables compared:

    >>> are_equal("ad", "da")
    True
    >>> are_equal("bd", "db")
    False
    """
    lu, gu, au = _g_pass(u)
    lv, gv, av = _g_pass(v)
    if gu != gv or au != av or _power_sums(lu) != _power_sums(lv):
        return False
    return _syllables(lu) == _syllables(lv)
