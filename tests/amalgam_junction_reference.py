# The syllable-rewriting layer of goeritz.amalgam from before mul_nf
# merged through _merge: normal_form, _merge, inv_nf and the mul_nf that
# cancelled across the junction by index and joined two tuple slices,
# kept verbatim with their tables as a differential oracle for
# tests/test_amalgam_loop_differential.py.  The package's mul_nf now
# merges the second operand's syllables onto the first one's with the
# loop that normal_form uses.  Shared with the package: NormalForm and
# the edge-stabilizer constants only; parse is the verbatim former copy
# in tests/amalgam_reference.py.  Results are built through the public
# NormalForm, so every one of them is checked.
"""The former mul_nf that cancelled across the junction by index."""

from __future__ import annotations

from typing import Iterable

from amalgam_reference import parse
from goeritz.amalgam import NormalForm
from goeritz.stabilizers import EDGE_A, EDGE_G, EDGE_GA, EDGE_IDENTITY

# the edge-stabilizer element g^g a^a as _TAIL[g][a], built once
_TAIL = ((EDGE_IDENTITY, EDGE_A), (EDGE_G, EDGE_GA))

# shared syllables: every triple syllable, and the pair syllables a merge
# most often makes; a syllable of each letter is one of them
_PAIR = {k: ("P", k) for k in range(-32, 33) if k}
_TRIPLE = (None, ("Q", 1), ("Q", 2))
_LETTER_SYLLABLE = {"b": _PAIR[1], "B": _PAIR[-1], "d": _TRIPLE[1], "D": _TRIPLE[2]}
_SWAP_D = str.maketrans("dD", "Dd")

_trusted = NormalForm


def _pair_parity(syllables: tuple[tuple[str, int], ...]) -> int:
    return sum(k for side, k in syllables if side == "P") & 1


def _merge(factors: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The alternating syllables of a product of factors, left to right.

    Every factor must be reduced, ("P", k) with k != 0 or ("Q", m) with
    m in {1, 2}: a factor ("Q", 3) or ("P", 0) would be kept as a
    syllable.  A factor that merges with nothing is kept as is.
    """
    syllables: list[tuple[str, int]] = []
    for factor in factors:
        if syllables and syllables[-1][0] == factor[0]:
            # it merges with the last syllable, which vanishes if the
            # power becomes trivial
            side, k = syllables.pop()
            k += factor[1]
            if side == "Q":
                k %= 3
                if k:
                    syllables.append(_TRIPLE[k])
            elif k:
                syllables.append(_PAIR.get(k) or ("P", k))
        else:
            syllables.append(factor)
    return tuple(syllables)


def normal_form(word: str) -> NormalForm:
    """Normal form of a generator word.

    >>> str(normal_form("bd"))
    'P(b^1) Q(d^1) | tail=1'
    >>> normal_form("gg").is_identity()
    True
    """
    # every g moves to the right end: the segments after an odd number
    # of g's are conjugated by g, which swaps d and D and leaves one t
    # per b or B behind
    parts = parse(word).split("g")
    a = 0
    if len(parts) > 1:
        odd = "g".join(parts[1::2])
        a = (odd.count("b") + odd.count("B")) & 1
        parts[1::2] = odd.translate(_SWAP_D).split("g")
    syllables = _merge(map(_LETTER_SYLLABLE.__getitem__, "".join(parts)))
    return _trusted(syllables, _TAIL[(len(parts) - 1) & 1][a])


def mul_nf(u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms."""
    left, right = u.syllables, v.syllables
    a = u.tail.a ^ v.tail.a
    if u.tail.g and right:
        # u's tail moves through v's syllables as in normal_form
        a ^= _pair_parity(right)
        right = tuple(s if s[0] == "P" else _TRIPLE[3 - s[1]] for s in right)
    # cancel across the junction: after one side match the sides keep
    # matching, since both operands alternate
    i, j, middle = len(left), 0, ()
    if i and right and left[-1][0] == right[0][0]:
        triple = left[-1][0] == "Q"
        while True:
            i -= 1
            k = left[i][1] + right[j][1]
            j += 1
            if triple:
                k %= 3
            if k:
                middle = (_TRIPLE[k],) if triple else (_PAIR.get(k) or ("P", k),)
                break
            if not i or j == len(right):
                break
            triple = not triple
    syllables = left[:i] + middle + right[j:]
    return _trusted(syllables, _TAIL[u.tail.g ^ v.tail.g][a])


def inv_nf(u: NormalForm) -> NormalForm:
    """Inverse of a normal form."""
    # (c_1 ... c_n h)^-1 = h c_n^-1 ... c_1^-1, and h (its own inverse)
    # moves back to the right end as in normal_form
    g, a = u.tail.g, u.tail.a
    if g:
        a ^= _pair_parity(u.syllables)
    syllables = tuple(
        (_PAIR.get(-k) or ("P", -k)) if side == "P" else _TRIPLE[k if g else 3 - k]
        for side, k in reversed(u.syllables)
    )
    return _trusted(syllables, _TAIL[g][a])
