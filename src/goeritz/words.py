"""Words in the rank-two free group F = <x, y>.

A word is plain text with one character per letter, lowercase for a
generator and uppercase for its inverse, so "xyXY" denotes the
commutator x y x^-1 y^-1.  Every function here takes such text, reduced
or not, raises TypeError on anything but a str and ValueError on any
other character, and returns plain data: reduced words are str,
exponent sums a pair of ints, verdicts bool.

Free reduction looks for an inverse pair (xX, Xx, yY or Yy) with four
substring searches, which run in C; a word with none is reduced
already and comes back as it is.  Otherwise a per-letter cancellation
stack reduces the whole word, linear in the worst case.

Besides free and cyclic reduction this module decides primitivity (is a
word part of some free basis?) in linear time, by Christoffel descent.
There is also the cheap certificate used throughout the package: a
cyclically reduced word that contains both x and x^-1 (or both y and
y^-1) is never primitive.
"""

from __future__ import annotations

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
_DROP_LETTERS = str.maketrans("", "", "xXyY")
# canonical letter order x < x^-1 < y < y^-1, as ASCII-ordered stand-ins
_TO_ORDER = str.maketrans("xXyY", "abcd")
_FROM_ORDER = str.maketrans("abcd", "xXyY")


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
    if not ("xX" in word or "Xx" in word or "yY" in word or "Yy" in word):
        return word
    out: list[str] = []
    for ch in word:
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
    return _least_rotation(w).translate(_FROM_ORDER)


def _least_rotation(w: str) -> str:
    # The least rotation of a word over the stand-ins "abcd".  Two
    # candidate starts i < j, every other start below j already ruled
    # out (Booth, Inf. Process. Lett. 10, 1980; this two-candidate form
    # is Shiloach's, J. Algorithms 2, 1981).  If the rotations at i and j
    # first differ at offset k, the one with the larger letter there
    # loses, and so do the k starts after it: rotation (loser + t) is
    # beaten by rotation (winner + t) for t <= k.  Each round adds k + 1
    # or more to i + j < 2n, so the comparisons total O(n).  Only starts
    # at the least letter can win, and str.find skips the rest.
    if not w:
        return w
    for least in "abcd":
        if least in w:
            break
    n, ww = len(w), w + w
    i = w.index(least)
    j = w.find(least, i + 1)
    while j != -1:
        k = _common_prefix(ww, i, j, n)
        if k == n:
            break  # w is a proper power of period j - i
        if ww[i + k] < ww[j + k]:
            j = w.find(least, j + k + 1)
        else:
            i, j = j, w.find(least, max(i + k + 1, j + 1))
    return ww[i : i + n]


def _common_prefix(ww: str, i: int, j: int, n: int) -> int:
    # length, at most n, of the common prefix of ww[i:] and ww[j:]: a few
    # letter compares, then slice equality over doubling and then halving
    # lengths, so long agreements (powers, Christoffel words) run in C
    k = 0
    while k < 8:
        if k == n or ww[i + k] != ww[j + k]:
            return k
        k += 1
    step = 8
    while True:
        m = min(step, n - k)
        if ww[i + k : i + k + m] != ww[j + k : j + k + m]:
            break
        k += m
        if k == n:
            return n
        step *= 2
    while m > 1:  # the first difference lies in [k, k + m)
        half = m // 2
        if ww[i + k : i + k + half] == ww[j + k : j + k + half]:
            k, m = k + half, m - half
        else:
            m = half
    return k


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
    return _mixed_signs(w)


def _mixed_signs(w: str) -> bool:
    return ("x" in w and "X" in w) or ("y" in w and "Y" in w)


def is_primitive(word: str) -> bool:
    """Decide whether the word is primitive, by Christoffel descent.

    A cyclically reduced word of F_2 is primitive iff, up to inverting
    generators, it is positive and conjugate to a Christoffel word
    (Osborne and Zieschang, Invent. Math. 63, 1981; Cohen, Metzler and
    Zimmermann, Math. Ann. 257, 1981).  So mixed signs are not
    primitive, and the rest is lowercased.  Each round takes the letter
    a that never occurs twice in a row, cyclically (if both do: not
    primitive), and the runs b^e_i between consecutive a's; with
    n = min e_i, every e_i must be n or n + 1, and a b^n -> a,
    a b^(n+1) -> a b undoes the automorphism a -> a b^n.  The word is
    primitive iff this ends at one letter; the empty word is not.  With
    k letters a, a round drops k n of at most k (n + 2) letters, a third
    or more, so the total work is linear in the length.

    >>> is_primitive("xy")
    True
    >>> is_primitive("xyXY")
    False
    """
    w = _strip_conjugation(parse_word(word))
    if _mixed_signs(w):
        return False
    w = w.lower()
    while len(w) > 1:
        # when y occurs twice in a row too, some run below is empty and
        # another is longer than one, so the run test rejects the word
        a, b = ("y", "x") if "xx" in w + w[0] else ("x", "y")
        if a not in w:
            return False  # a proper power of one letter
        start = w.index(a)
        runs = [len(run) for run in (w[start:] + w[:start]).split(a)[1:]]
        n = min(runs)
        if max(runs) > n + 1:
            return False
        w = "".join(a + b * (e - n) for e in runs)
    return len(w) == 1


def iter_cyclically_reduced(max_len: int) -> Iterator[str]:
    """Yield every cyclically reduced word of length 1..max_len once.

    >>> list(iter_cyclically_reduced(2))[:5]
    ['x', 'xY', 'xy', 'xx', 'X']
    """
    # depth-first over letter strings avoiding adjacent inverses, then a
    # final circular check between last and first letter
    stack = list("YyXx") if max_len > 0 else []
    while stack:
        w = stack.pop()
        if w[-1] != _INVERSE[w[0]]:
            yield w
        if len(w) < max_len:
            stack.extend(w + ch for ch in "xXyY" if ch != _INVERSE[w[-1]])
