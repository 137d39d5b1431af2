"""Words in the rank-two free group F = <x, y>.

A word is plain text with one character per letter, lowercase for a
generator and uppercase for its inverse, so "xyXY" denotes the
commutator x y x^-1 y^-1.  Every function here takes such text, reduced
or not, raises ValueError on any other character, and returns plain
data: reduced words are str, exponent sums a pair of ints, verdicts
bool.

Besides free and cyclic reduction this module decides primitivity (is a
word part of some free basis?) with the classical Whitehead algorithm:
a cyclically reduced word is primitive iff repeated application of
length-decreasing Whitehead automorphisms brings it down to a single
letter.  There is also the cheap certificate used throughout the
package: a cyclically reduced word that contains both x and x^-1 (or
both y and y^-1) is never primitive.
"""

from __future__ import annotations

import re
from typing import Iterator

__all__ = [
    "parse_word",
    "cyclic_reduce",
    "abelianize",
    "mixed_sign_criterion",
    "is_primitive",
    "iter_cyclically_reduced",
]

_INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_INVERSE_PAIR = re.compile("xX|Xx|yY|Yy")
_DROP_LETTERS = str.maketrans("", "", "xXyY")
# canonical letter order x < x^-1 < y < y^-1, as ASCII-ordered stand-ins
_TO_ORDER = str.maketrans("xXyY", "abcd")
_FROM_ORDER = str.maketrans("abcd", "xXyY")


def parse_word(text: str) -> str:
    """Validate a word and freely reduce it.

    >>> parse_word("xyY")
    'x'
    """
    junk = text.translate(_DROP_LETTERS)
    if junk:
        raise ValueError(f"invalid character {junk[0]!r}; expected one of 'xXyY'")
    return _free_reduce(text)


def _free_reduce(word: str) -> str:
    # One regex pass deletes the inverse pairs already adjacent.  That is
    # all a Whitehead image of a reduced word needs: its pairs are an
    # inserted multiplier letter against a neighbour, and deleting one
    # never joins two inverse letters.  Pairs that deletions do join (the
    # outer one of "xyYX") go to the linear stack below.
    shorter = _INVERSE_PAIR.sub("", word)
    if len(shorter) == len(word) or not _INVERSE_PAIR.search(shorter):
        return shorter
    out: list[str] = []
    for ch in shorter:
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _strip_conjugation(word: str) -> str:
    # a freely reduced word minus its longest prefix u and suffix u^-1
    i, j = 0, len(word) - 1
    while i < j and word[i] == _INVERSE[word[j]]:
        i += 1
        j -= 1
    return word[i : j + 1]


def cyclic_reduce(word: str) -> str:
    """Cyclically reduce a word and put it in canonical rotation, the
    least one under the letter order x < x^-1 < y < y^-1.

    The result generates the same conjugacy class, and two words are
    conjugate exactly when their results are equal.

    >>> cyclic_reduce("xxyX")
    'xy'
    >>> cyclic_reduce("yx")
    'xy'
    """
    w = _strip_conjugation(parse_word(word)).translate(_TO_ORDER)
    n, ww = len(w), w + w
    return min((ww[i : i + n] for i in range(n)), default="").translate(_FROM_ORDER)


def abelianize(word: str) -> tuple[int, int]:
    """Exponent sums (on x, on y).  A primitive word always has
    coprime exponent sums (gcd(0, n) = |n| counts as coprime iff n = 1).

    >>> abelianize("xxyX")
    (1, 1)
    """
    w = parse_word(word)
    return w.count("x") - w.count("X"), w.count("y") - w.count("Y")


def mixed_sign_criterion(word: str) -> bool:
    """Cheap non-primitivity certificate; True means certified non-primitive.

    If the cyclically reduced word contains x and x^-1 simultaneously
    (or y and y^-1), it cannot be part of a free basis.  The converse
    fails: xxyy is not primitive yet has no mixed signs, so False is
    only "inconclusive".  Raises ValueError when the word is trivial
    after cyclic reduction.

    >>> mixed_sign_criterion("xyXY"), mixed_sign_criterion("xxyy")
    (True, False)
    """
    w = _strip_conjugation(parse_word(word))
    if not w:
        raise ValueError("mixed_sign_criterion expects a nonempty word")
    return ("x" in w and "X" in w) or ("y" in w and "Y" in w)


def _inverse(word: str) -> str:
    return word[::-1].swapcase()


def _whitehead_maps() -> tuple[dict[int, str], ...]:
    # Type-II Whitehead automorphisms of F_2: fix a multiplier letter a,
    # send the other generator z to one of  z*a,  a^-1*z,  a^-1*z*a.
    # Twelve nontrivial maps in total; the set is closed under inverses,
    # which is what makes greedy descent complete.
    maps = []
    for a in "xXyY":
        z = "y" if a in "xX" else "x"
        for img in (z + a, _inverse(a) + z, _inverse(a) + z + a):
            maps.append(str.maketrans({z: img, _inverse(z): _inverse(img)}))
    return tuple(maps)


_WHITEHEAD_MAPS = _whitehead_maps()


def is_primitive(word: str) -> bool:
    """Decide whether the word is primitive, by Whitehead's algorithm.

    Greedy strict-length descent over the finite set of Whitehead
    automorphisms of F_2, always taking the first map (in a fixed
    order) that shortens the cyclic word; a word is primitive iff the
    descent reaches a single letter.  The empty word is not primitive.

    >>> is_primitive("xy")
    True
    >>> is_primitive("xyXY")
    False
    """
    w = _strip_conjugation(parse_word(word))
    while len(w) > 1:
        for table in _WHITEHEAD_MAPS:
            image = _strip_conjugation(_free_reduce(w.translate(table)))
            if len(image) < len(w):
                w = image
                break
        else:
            return False  # Whitehead-minimal and longer than one letter
    return len(w) == 1


def iter_cyclically_reduced(max_len: int) -> Iterator[str]:
    """Yield every cyclically reduced word of length 1..max_len once.

    >>> list(iter_cyclically_reduced(2))[:5]
    ['x', 'xY', 'xy', 'xx', 'X']
    """
    # depth-first over letter strings avoiding adjacent inverses, then a
    # final circular check between last and first letter
    stack = list("YyXx")
    while stack:
        w = stack.pop()
        if w[-1] != _INVERSE[w[0]]:
            yield w
        if len(w) < max_len:
            stack.extend(w + ch for ch in "xXyY" if ch != _INVERSE[w[-1]])
