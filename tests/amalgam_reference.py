# The right-to-left rewriter that goeritz.amalgam used before its
# left-to-right loop, kept unchanged as an independent differential
# oracle for tests/test_amalgam_differential.py and the "before" rows of
# benchmarks/normal_form.py.  It is quadratic: _push rebuilds the whole
# syllable tuple each time a g crosses it.
# Its edits since: Syllable objects became (side, power) tuples, and it
# carries its own verbatim copy of the per-character parse that
# goeritz.amalgam used before parse ran as str.translate and str.replace,
# so that it shares no input handling with the code it checks.  It
# defines its own IDENTITY_NF and takes in_pair from
# tests/stabilizers_reference.py, since the package no longer has them,
# and inv_nf takes u.tail as its own inverse, the same element, since
# every edge-stabilizer element is an involution.
"""Right-to-left normal-form rewriting for the genus-2 Goeritz group.

The normal form of a suffix is maintained and each new letter is
multiplied on from the left; edge-stabilizer parts are pushed rightwards
into the tail.
"""

from __future__ import annotations

from goeritz.amalgam import NormalForm
from goeritz.stabilizers import EdgeStabilizer, PairStabilizer, TripleStabilizer
from stabilizers_reference import in_pair

IDENTITY_NF = NormalForm()

GENERATOR_ALPHABET = "bBgdD"
_MACROS = {"a": "bgBg", "t": "bgBg"}


def parse(text: str) -> str:
    """Expand macros and validate a generator word.

    >>> parse("a")
    'bgBg'
    >>> parse("bD")
    'bD'
    """
    out = []
    for ch in text:
        if ch in _MACROS:
            out.append(_MACROS[ch])
        elif ch in GENERATOR_ALPHABET:
            out.append(ch)
        else:
            raise ValueError(
                f"invalid character {ch!r}; expected one of 'bBgdDat'"
            )
    return "".join(out)


def _push(
    he: EdgeStabilizer, syllables: tuple[tuple[str, int], ...], tail: EdgeStabilizer
) -> tuple[tuple[tuple[str, int], ...], EdgeStabilizer]:
    # slide an edge-stabilizer element rightwards across the syllables
    if he.g == 0:
        # t/a is central in both factors: nothing changes on the way
        return syllables, (tail if he.a == 0 else he * tail)
    a_bit = he.a
    out = []
    for side, power in syllables:
        if side == "P":
            a_bit = (a_bit + power) % 2  # g b^k = b^k t^k g
            out.append((side, power))
        else:
            out.append(("Q", (-power) % 3))  # g d^m = d^-m g
    return tuple(out), EdgeStabilizer(1, a_bit) * tail


def _mul_pair_left(elem: PairStabilizer, nf: NormalForm) -> NormalForm:
    syllables = nf.syllables
    if syllables and syllables[0][0] == "P":
        combined = elem * PairStabilizer(syllables[0][1], 0, 0)
        rest = syllables[1:]
    else:
        combined = elem
        rest = syllables
    k, he = combined.decompose()
    rest, tail = _push(he, rest, nf.tail)
    if k != 0:
        rest = (("P", k),) + rest
    return NormalForm(rest, tail)


def _mul_triple_left(elem: TripleStabilizer, nf: NormalForm) -> NormalForm:
    syllables = nf.syllables
    if syllables and syllables[0][0] == "Q":
        combined = elem * TripleStabilizer(syllables[0][1], 0, 0)
        rest = syllables[1:]
    else:
        combined = elem
        rest = syllables
    m, he = combined.decompose()
    rest, tail = _push(he, rest, nf.tail)
    if m != 0:
        rest = (("Q", m),) + rest
    return NormalForm(rest, tail)


_LETTER_ACTION = {
    "b": ("P", PairStabilizer(1, 0, 0)),
    "B": ("P", PairStabilizer(-1, 0, 0)),
    "g": ("P", PairStabilizer(0, 0, 1)),
    "d": ("Q", TripleStabilizer(1, 0, 0)),
    "D": ("Q", TripleStabilizer(2, 0, 0)),
}


def normal_form(word: str) -> NormalForm:
    """Normal form of a generator word.

    >>> str(normal_form("bd"))
    'P(b^1) Q(d^1) | tail=1'
    >>> normal_form("gg").is_identity()
    True
    """
    nf = IDENTITY_NF
    for ch in reversed(parse(word)):
        side, elem = _LETTER_ACTION[ch]
        nf = _mul_pair_left(elem, nf) if side == "P" else _mul_triple_left(elem, nf)
    return nf


def mul_nf(u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms."""
    result = _mul_pair_left(in_pair(u.tail), v)
    for side, power in reversed(u.syllables):
        if side == "P":
            result = _mul_pair_left(PairStabilizer(power, 0, 0), result)
        else:
            result = _mul_triple_left(TripleStabilizer(power, 0, 0), result)
    return result


def inv_nf(u: NormalForm) -> NormalForm:
    """Inverse of a normal form."""
    result = IDENTITY_NF
    for side, power in u.syllables:
        if side == "P":
            result = _mul_pair_left(PairStabilizer(-power, 0, 0), result)
        else:
            result = _mul_triple_left(TripleStabilizer((-power) % 3, 0, 0), result)
    return _mul_pair_left(in_pair(u.tail), result)
