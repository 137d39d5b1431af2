# The left-to-right rewriting loop and the per-character invert_word of
# goeritz.amalgam from before the loop held its last syllable in two
# locals and parse ran as str.translate and str.replace, kept verbatim
# as a linear-time differential oracle for
# tests/test_amalgam_loop_differential.py.  That test compares the
# package with it on words of benchmark size, which the quadratic
# tests/amalgam_reference.py cannot reach, and on parse and invert_word
# inputs of any code point.  Shared with the package: NormalForm and
# EdgeStabilizer only; the former parse is the verbatim copy in
# tests/amalgam_reference.py.
"""The former left-to-right rewriting loop, with its invert_word."""

from __future__ import annotations

from typing import Iterable

from amalgam_reference import parse
from goeritz.amalgam import NormalForm
from goeritz.stabilizers import EdgeStabilizer

_INVERSE_CHAR = {"b": "B", "B": "b", "g": "g", "d": "D", "D": "d"}


def invert_word(word: str) -> str:
    """Formal inverse of a generator word."""
    return "".join(_INVERSE_CHAR[ch] for ch in reversed(parse(word)))


# the stabilizer factor of each letter as (side, power, a bit, g bit):
# b^power t^a g^g on the pair side "P", d^power g^g a^a on the triple side "Q"
_LETTER_FACTOR = {
    "b": ("P", 1, 0, 0),
    "B": ("P", -1, 0, 0),
    "g": ("P", 0, 0, 1),
    "d": ("Q", 1, 0, 0),
    "D": ("Q", 2, 0, 0),
}


def _multiply(
    syllables: list[tuple[str, int]], g: int, a: int, factors: Iterable[tuple]
) -> NormalForm:
    # right-multiply the element syllables . g^g a^a by each factor in
    # turn; the list of syllables is consumed
    for side, power, a_bit, g_bit in factors:
        # the factor joins the tail inside its own stabilizer
        if side == "P":
            # t^a g^c . b^k = b^k t^(a+ck) g^c, and power & g is ck mod 2
            a ^= a_bit ^ (power & g)
        else:
            a ^= a_bit
            if g:
                power = -power  # g^c a^e . d^m = d^-m g^c a^e
        g ^= g_bit
        if power:
            # the transversal part merges with a last syllable of its side
            if syllables and syllables[-1][0] == side:
                power += syllables.pop()[1]
            if side == "Q":
                power %= 3
            if power:
                syllables.append((side, power))
    return NormalForm(tuple(syllables), EdgeStabilizer(g, a))


def normal_form(word: str) -> NormalForm:
    """Normal form of a generator word.

    >>> str(normal_form("bd"))
    'P(b^1) Q(d^1) | tail=1'
    >>> normal_form("gg").is_identity()
    True
    """
    return _multiply([], 0, 0, map(_LETTER_FACTOR.__getitem__, parse(word)))


def mul_nf(u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms."""
    factors = [(side, power, 0, 0) for side, power in v.syllables]
    factors.append(("P", 0, v.tail.a, v.tail.g))
    return _multiply(list(u.syllables), u.tail.g, u.tail.a, factors)


def inv_nf(u: NormalForm) -> NormalForm:
    """Inverse of a normal form."""
    # every edge-stabilizer element, u.tail among them, is its own inverse
    factors = ((side, -power, 0, 0) for side, power in reversed(u.syllables))
    return _multiply([], u.tail.g, u.tail.a, factors)
