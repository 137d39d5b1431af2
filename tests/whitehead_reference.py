# The greedy Whitehead descent that goeritz.words used to decide
# primitivity before it moved to the linear Christoffel descent, kept
# unchanged as an independent oracle for the primitivity tests: the
# descent and its twelve maps, with its own _free_reduce and
# _strip_conjugation.  Stdlib only; it does not import goeritz.words.
# Words are "xXyY" text (uppercase = inverse) and are not validated:
# is_primitive freely reduces its input where goeritz.words.parse_word
# also rejected other characters.

from __future__ import annotations

import re

_INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_INVERSE_PAIR = re.compile("xX|Xx|yY|Yy")


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
    w = _strip_conjugation(_free_reduce(word))
    while len(w) > 1:
        for table in _WHITEHEAD_MAPS:
            image = _strip_conjugation(_free_reduce(w.translate(table)))
            if len(image) < len(w):
                w = image
                break
        else:
            return False  # Whitehead-minimal and longer than one letter
    return len(w) == 1
