"""Normal forms and the word problem for the genus-2 Goeritz group.

The group is the amalgamated free product of the pair stabilizer and
the triple stabilizer over the Klein four edge stabilizer (see
:mod:`goeritz.stabilizers`).  Choosing the coset transversals

    pair side:   { b^k : k in Z }
    triple side: { 1, d, d^2 }

every group element has a unique expression

    c_1 c_2 ... c_n . h

where h lies in the edge stabilizer and the c_i are nontrivial
transversal representatives alternating between the two sides.  We call
the c_i syllables and h the tail.  A syllable is a plain (side, power)
tuple: ("P", k) stands for b^k with k != 0 and ("Q", m) for d^m with m
in {1, 2}; check_syllables is the one place that checks this shape.

Words are rewritten left to right: the element so far is multiplied on
the right by one stabilizer factor per letter.  The tail already sits
at the right end, so the factor joins it inside its own stabilizer by
the exchange rules (t and a are central)

    t^a g^c . b^k = b^k . t^(a+ck) g^c
    g^c a^e . d^m = d^((-1)^c m) . g^c a^e

the product merges with the last syllable when that lies on the same
side, and it splits again into a transversal power (the new last
syllable, if nontrivial) and a new tail.  Nothing is pushed through the
syllables, so each letter costs O(1) and a word of n letters O(n).
Products and inverses of normal forms run the same loop over syllables.
The alternating shape survives every step, so equality of group
elements is literal equality of normal forms.

Input words use one character per generator: b/B for the pair-side
generator and its inverse, g for the common involution, d/D for the
order-3 generator and its inverse.  The macros a (central involution of
the triple side) and t (its pair-side alias) both expand to "bgBg".
parse checks a word with one str.translate that deletes the legal
letters and expands the macros with str.replace, and invert_word
reverses and swaps letters with one more str.translate, so no Python
loop runs per character.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .stabilizers import EDGE_A, EDGE_G, EDGE_GA, EDGE_IDENTITY, EdgeStabilizer

__all__ = [
    "GENERATOR_ALPHABET",
    "NormalForm",
    "check_syllables",
    "IDENTITY_NF",
    "parse",
    "invert_word",
    "random_word",
    "normal_form",
    "mul_nf",
    "inv_nf",
    "are_equal",
    "nf_to_word",
    "DEFAULT_RELATORS",
    "PresentationReport",
    "verify_presentation",
    "random_consequence",
]

GENERATOR_ALPHABET = "bBgdD"
_DROP_LETTERS = str.maketrans("", "", GENERATOR_ALPHABET + "at")
_INVERT_LETTERS = str.maketrans("bBdD", "BbDd")


def parse(text: str) -> str:
    """Expand macros and validate a generator word.

    >>> parse("a")
    'bgBg'
    >>> parse("bD")
    'bD'
    >>> parse("bxq")
    Traceback (most recent call last):
    ...
    ValueError: invalid character 'x'; expected one of 'bBgdDat'
    """
    if not isinstance(text, str):
        raise TypeError(f"word must be a string, not {type(text).__name__}")
    # what the letters leave behind starts with the first invalid character
    leftover = text.translate(_DROP_LETTERS)
    if leftover:
        raise ValueError(f"invalid character {leftover[0]!r}; expected one of 'bBgdDat'")
    return text.replace("a", "bgBg").replace("t", "bgBg")


def invert_word(word: str) -> str:
    """Formal inverse of a generator word.

    >>> invert_word("bgdt")
    'gbgBDgB'
    """
    return parse(word)[::-1].translate(_INVERT_LETTERS)


def random_word(rng: random.Random, length: int) -> str:
    """Uniform random generator word of the given length."""
    return "".join(rng.choice(GENERATOR_ALPHABET) for _ in range(length))


def _syllable_text(side: str, power: int) -> str:
    return f"{side}({'b' if side == 'P' else 'd'}^{power})"


def check_syllables(syllables: tuple[tuple[str, int], ...]) -> None:
    """Raise ValueError unless every syllable is ("P", k) with k != 0 or
    ("Q", m) with m in {1, 2}, and neighbouring syllables lie on
    different sides.

    >>> check_syllables((("P", 1), ("P", 2)))
    Traceback (most recent call last):
    ...
    ValueError: syllables do not alternate: P(b^1) P(b^2)
    """
    for side, power in syllables:
        if side == "P":
            if power == 0:
                raise ValueError("pair syllable with zero power")
        elif side == "Q":
            if power not in (1, 2):
                raise ValueError(f"triple syllable power must be 1 or 2, got {power}")
        else:
            raise ValueError(f"unknown factor {side!r}")
    for left, right in zip(syllables, syllables[1:]):
        if left[0] == right[0]:
            raise ValueError(
                f"syllables do not alternate: {_syllable_text(*left)} {_syllable_text(*right)}"
            )


@dataclass(frozen=True, slots=True)
class NormalForm:
    """Alternating (side, power) syllables followed by an edge-stabilizer tail."""

    syllables: tuple[tuple[str, int], ...] = ()
    tail: EdgeStabilizer = EDGE_IDENTITY

    def __post_init__(self) -> None:
        check_syllables(self.syllables)

    def is_identity(self) -> bool:
        return not self.syllables and self.tail.is_identity()

    def __str__(self) -> str:
        head = " ".join(_syllable_text(*s) for s in self.syllables)
        tail = f"tail={self.tail}"
        return f"{head} | {tail}" if head else tail


IDENTITY_NF = NormalForm()


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


def are_equal(u: str, v: str) -> bool:
    """Word problem: do two generator words define the same element?

    >>> are_equal("ad", "da")
    True
    >>> are_equal("bd", "db")
    False
    """
    return normal_form(u) == normal_form(v)


def nf_to_word(nf: NormalForm) -> str:
    """A generator word spelling out a normal form."""
    parts = []
    for side, power in nf.syllables:
        if side == "P":
            parts.append(("b" if power > 0 else "B") * abs(power))
        else:
            parts.append("d" * power)
    parts.append("g" * nf.tail.g + "a" * nf.tail.a)
    return "".join(parts)


def _commutator(u: str, v: str) -> str:
    return parse(u) + parse(v) + invert_word(u) + invert_word(v)


# defining relators of the finite presentation on b, g, d (a = bgBg)
DEFAULT_RELATORS: tuple[tuple[str, str], ...] = (
    ("g^2", "gg"),
    ("d^3", "ddd"),
    ("(gd)^2", "gdgd"),
    ("a^2", parse("aa")),
    ("[a,b]", _commutator("a", "b")),
    ("[a,d]", _commutator("a", "d")),
)


def random_consequence(rng: random.Random, max_len: int = 200) -> str:
    """A random product of conjugated relators, length at most max_len.

    Every such word is a consequence of the defining relators, hence
    must normalize to the identity.  Raises ValueError when max_len is
    shorter than the longest relator.
    """
    longest = max(len(relator) for _, relator in DEFAULT_RELATORS)
    if max_len < longest:
        raise ValueError(f"max_len must be at least {longest}, the longest relator")
    count = rng.randint(1, min(3, max_len // longest))
    budget = max_len // count
    parts = []
    for _ in range(count):
        name, relator = DEFAULT_RELATORS[rng.randrange(len(DEFAULT_RELATORS))]
        conj_len = max(0, (budget - len(relator)) // 2)
        u = random_word(rng, rng.randint(0, conj_len))
        parts.append(u + relator + invert_word(u))
    word = "".join(parts)
    assert len(word) <= max_len
    return word


@dataclass
class PresentationReport:
    """Outcome of checking the relators and sampled consequences."""

    relator_results: list[tuple[str, bool]]
    consequences_checked: int
    consequence_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.relator_results) and not self.consequence_failures


def verify_presentation(
    consequences: int = 1000, max_len: int = 200, seed: int = 0
) -> PresentationReport:
    """Check that every defining relator, and a seeded sample of products
    of conjugated relators, normalizes to the identity."""
    relator_results = [
        (name, normal_form(word).is_identity()) for name, word in DEFAULT_RELATORS
    ]
    rng = random.Random(seed)
    failures = []
    for _ in range(consequences):
        word = random_consequence(rng, max_len)
        if not normal_form(word).is_identity():
            failures.append(word)
    return PresentationReport(relator_results, consequences, failures)
