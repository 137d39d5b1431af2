# The left-to-right rewriting loop of goeritz.amalgam from before the
# tail left the loop: one pass over every letter that joins the factor to
# an edge-stabilizer tail and holds the last syllable in two locals.  Its
# factor table, _TAIL and _multiply are kept verbatim as a linear-time
# differential oracle for tests/test_amalgam_loop_differential.py.  The
# package now moves every g to the right end with string operations and
# merges syllables only, and builds its results without check_syllables;
# this loop builds each result through the public NormalForm, so every
# one of them is checked.  Shared with the package: NormalForm and the
# edge-stabilizer constants only; parse is the verbatim former copy in
# tests/amalgam_reference.py.
"""The former left-to-right rewriting loop with the held last syllable."""

from __future__ import annotations

from typing import Iterable

from amalgam_reference import parse
from goeritz.amalgam import NormalForm
from goeritz.stabilizers import EDGE_A, EDGE_G, EDGE_GA, EDGE_IDENTITY

# the stabilizer factor of each letter as (side, power, a bit, g bit):
# b^power t^a g^g on the pair side "P", d^power g^g a^a on the triple side "Q"
_LETTER_FACTOR = {
    "b": ("P", 1, 0, 0),
    "B": ("P", -1, 0, 0),
    "g": ("P", 0, 0, 1),
    "d": ("Q", 1, 0, 0),
    "D": ("Q", 2, 0, 0),
}


# the edge-stabilizer element g^g a^a as _TAIL[g][a], built once
_TAIL = ((EDGE_IDENTITY, EDGE_A), (EDGE_G, EDGE_GA))


def _multiply(
    syllables: list[tuple[str, int]], g: int, a: int, factors: Iterable[tuple]
) -> NormalForm:
    # right-multiply the element syllables . g^g a^a by each factor in
    # turn; the list of syllables is consumed.  Its last syllable is held
    # in (side_k, k), side_k "" when there is none, and joins the list
    # only when a syllable of the other side comes after it.
    side_k, k = syllables.pop() if syllables else ("", 0)
    for side, power, a_bit, g_bit in factors:
        # the factor joins the tail inside its own stabilizer
        if side == "P":
            # t^a g^c . b^k = b^k t^(a+ck) g^c, and power & g is ck mod 2
            a ^= a_bit ^ (power & g)
        else:
            a ^= a_bit
            # g^c a^e . d^m = d^-m g^c a^e, and d^3 = 1
            power = (-power if g else power) % 3
        g ^= g_bit
        if not power:
            continue
        if side != side_k:
            if side_k:
                syllables.append((side_k, k))
            side_k, k = side, power
            continue
        # the transversal part merges with the held syllable
        k += power
        if side == "Q":
            k %= 3
        if not k:
            # it cancels, and the syllable before it is held instead
            side_k, k = syllables.pop() if syllables else ("", 0)
    if side_k:
        syllables.append((side_k, k))
    return NormalForm(tuple(syllables), _TAIL[g][a])


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
