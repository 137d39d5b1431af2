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

Words are rewritten in two passes.  The tail only commutes through
the factors (t and a are central)

    t^a g^c . b^k = b^k . t^(a+ck) g^c
    g^c a^e . d^m = d^((-1)^c m) . g^c a^e

so the g pass first moves every g to the right end with string
operations: split at the g's, the segments after an odd number of g's
are joined, have d and D swapped by one str.translate and are split
back into place; the a bit is the parity of their b and B letters, the
g bit that of the g's.  One small loop, _merge, then merges the letters
left in b, B, d, D into syllables left to right, with no tail state: it
holds the last syllable in a local, a letter of the other side pushes
it, one of the same side merges into it, and a merge to the trivial
power pops the syllable before it into the hold.  mul_nf conjugates the
second operand's syllables by the first one's tail in the same way and
merges them onto the first one's with the same loop; inv_nf is one
comprehension.  All three are linear.

The alternating shape survives every step, so equality of group
elements is equality of normal forms.  are_equal first cancels: p x s
and p y s are equal exactly when x and y are, so it drops the longest
common prefix and suffix of the two parsed words, found by the doubling
and halving slice search of words._common_prefix, and works on the
middles alone, so an equal pair pays the g pass and the merge of what
is left, not of both words.  It then compares the normal forms of the
middles: the tail bits of their g passes first, then their merged
syllables.  Results are built through the slot descriptors without
running check_syllables again; the public NormalForm constructor keeps
its syllables as a tuple and checks them.
Syllables are shared: each letter's syllable, each triple syllable and
each pair syllable with |power| <= 32 is one prebuilt tuple.

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
from .words import _common_prefix

__all__ = [
    "GENERATOR_ALPHABET",
    "NormalForm",
    "check_syllables",
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
    "MAX_CONSEQUENCE_LEN",
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
    """Raise ValueError unless every syllable is a tuple ("P", k) with
    k != 0 or ("Q", m) with m in {1, 2}, each power of type int (not
    bool), and neighbouring syllables lie on different sides.

    >>> check_syllables((("P", 1), ("P", 2)))
    Traceback (most recent call last):
    ...
    ValueError: syllables do not alternate: P(b^1) P(b^2)
    >>> check_syllables((("P", 1.5),))
    Traceback (most recent call last):
    ...
    ValueError: syllable power must be an int, got 1.5 of type float
    >>> check_syllables((["Q", 1],))
    Traceback (most recent call last):
    ...
    ValueError: syllable must be a (side, power) tuple, got ['Q', 1]
    """
    for syllable in syllables:
        # a tuple, so that a NormalForm and a tree vertex hash
        if type(syllable) is not tuple or len(syllable) != 2:
            raise ValueError(f"syllable must be a (side, power) tuple, got {syllable!r}")
        side, power = syllable
        if type(power) is not int:
            raise ValueError(
                f"syllable power must be an int, got {power!r} of type {type(power).__name__}"
            )
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
    """Alternating (side, power) syllables followed by an edge-stabilizer tail.

    The constructor keeps the syllables as a tuple and checks them, and
    raises TypeError for syllables that are not a sequence or a tail
    that is not an EdgeStabilizer."""

    syllables: tuple[tuple[str, int], ...] = ()
    tail: EdgeStabilizer = EDGE_IDENTITY

    def __post_init__(self) -> None:
        try:
            syllables = tuple(self.syllables)
        except TypeError:
            raise TypeError("syllables must be a sequence of (side, power) tuples, not "
                            f"{type(self.syllables).__name__}") from None
        object.__setattr__(self, "syllables", syllables)
        check_syllables(syllables)
        if not isinstance(self.tail, EdgeStabilizer):
            raise TypeError(f"tail must be an EdgeStabilizer, not {type(self.tail).__name__}")

    def is_identity(self) -> bool:
        return not self.syllables and self.tail.is_identity()

    def __str__(self) -> str:
        head = " ".join(_syllable_text(*s) for s in self.syllables)
        tail = f"tail={self.tail}"
        return f"{head} | {tail}" if head else tail


# the edge-stabilizer element g^g a^a as _TAIL[g][a], built once
_TAIL = ((EDGE_IDENTITY, EDGE_A), (EDGE_G, EDGE_GA))

# shared syllables: every triple syllable, and the pair syllables a merge
# most often makes; a syllable of each letter is one of them
_PAIR = {k: ("P", k) for k in range(-32, 33) if k}
_TRIPLE = (None, ("Q", 1), ("Q", 2))
_LETTER_SYLLABLE = {"b": _PAIR[1], "B": _PAIR[-1], "d": _TRIPLE[1], "D": _TRIPLE[2]}
_NO_SYLLABLE = ("", 0)  # _merge holds it on an empty stack; pushed, it is the bottom
_SWAP_D = str.maketrans("dD", "Dd")

_set_syllables = NormalForm.syllables.__set__
_set_tail = NormalForm.tail.__set__


def _trusted(syllables: tuple[tuple[str, int], ...], tail: EdgeStabilizer) -> NormalForm:
    # a NormalForm whose syllables alternate by construction, set through
    # the slot descriptors so that check_syllables does not run again
    nf = object.__new__(NormalForm)
    _set_syllables(nf, syllables)
    _set_tail(nf, tail)
    return nf


def _pair_parity(syllables: tuple[tuple[str, int], ...]) -> int:
    return sum(k for side, k in syllables if side == "P") & 1


def _merge(factors: Iterable[tuple[str, int]], syllables: list) -> tuple[tuple[str, int], ...]:
    """The alternating syllables of a product of factors, left to right,
    merged onto the stack ``syllables``, a list that alternates and is consumed.

    Every factor must be reduced, ("P", k) with k != 0 or ("Q", m) with
    m in {1, 2}: a factor ("Q", 3) or ("P", 0) would be kept as a
    syllable.  A factor that merges with nothing is kept as is.

    The last syllable is held in a local, pushed when a factor of the
    other side comes and replaced by a pop when a merge cancels it.
    """
    held = syllables.pop() if syllables else _NO_SYLLABLE
    for factor in factors:
        side = factor[0]
        if side != held[0]:
            syllables.append(held)
            held = factor
            continue
        k = held[1] + factor[1]
        if side == "Q":
            k %= 3
            held = _TRIPLE[k] if k else (syllables.pop() if syllables else _NO_SYLLABLE)
        elif k:
            held = _PAIR.get(k) or ("P", k)
        else:
            held = syllables.pop() if syllables else _NO_SYLLABLE
    syllables.append(held)
    if syllables[0] is _NO_SYLLABLE:
        del syllables[0]
    return tuple(syllables)


def _g_pass(letters: str) -> tuple[str, int, int]:
    """The b, B, d, D letters a parsed word leaves once every g has moved
    to the right end, and the g and a bits of the tail it leaves there."""
    # the segments after an odd number of g's are conjugated by g, which
    # swaps d and D and leaves one t per b or B behind
    parts = letters.split("g")
    a = 0
    if len(parts) > 1:
        odd = "g".join(parts[1::2])
        a = (odd.count("b") + odd.count("B")) & 1
        parts[1::2] = odd.translate(_SWAP_D).split("g")
    return "".join(parts), (len(parts) - 1) & 1, a


def _syllables(letters: str) -> tuple[tuple[str, int], ...]:
    return _merge(map(_LETTER_SYLLABLE.__getitem__, letters), [])


def normal_form(word: str) -> NormalForm:
    """Normal form of a generator word.

    >>> str(normal_form("bd"))
    'P(b^1) Q(d^1) | tail=1'
    >>> normal_form("gg").is_identity()
    True
    """
    letters, g, a = _g_pass(parse(word))
    return _trusted(_syllables(letters), _TAIL[g][a])


def mul_nf(u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms.

    >>> str(mul_nf(normal_form("bdb"), normal_form("BDb")))
    'P(b^2) | tail=1'
    """
    right = v.syllables
    a = u.tail.a ^ v.tail.a
    if u.tail.g and right:
        # u's tail moves through v's syllables as in normal_form
        a ^= _pair_parity(right)
        right = [s if s[0] == "P" else _TRIPLE[3 - s[1]] for s in right]
    return _trusted(_merge(right, list(u.syllables)), _TAIL[u.tail.g ^ v.tail.g][a])


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


def are_equal(u: str, v: str) -> bool:
    """Word problem: do two generator words define the same element?

    Both words are parsed, u first.  By left and right cancellation
    p x s and p y s are equal exactly when x and y are, so the longest
    common prefix and suffix of the parsed words go first and only the
    middles are compared; here they are "gdg" and "D":

    >>> are_equal("bd" + "gdg" + "Bd", "bd" + "D" + "Bd")
    True

    The middles are equal exactly when their normal forms are: the tail
    bits of their g passes, then their merged syllables.

    >>> are_equal("ddd", "d")
    False
    >>> are_equal("ad", "da")
    True
    >>> are_equal("bd", "db")
    False
    """
    u, v = parse(u), parse(v)
    # the prefix, then the suffix of what the prefix leaves of the shorter
    # word, through (u + v) and its reverse (v reversed, then u reversed),
    # which is built only when the last letters agree
    uv, n = u + v, min(len(u), len(v))
    head = _common_prefix(uv, 0, len(u), n)
    tail = _common_prefix(uv[::-1], 0, len(v), n - head) if u[-1:] == v[-1:] else 0
    lu, gu, au = _g_pass(u[head:len(u) - tail])
    lv, gv, av = _g_pass(v[head:len(v) - tail])
    return gu == gv and au == av and _syllables(lu) == _syllables(lv)


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


# a consequence this long is built and normalized in seconds, under 200 MiB;
# verify_presentation bounds the letters of all its consequences by it too
MAX_CONSEQUENCE_LEN = 10_000_000


def random_consequence(rng: random.Random, max_len: int = 200) -> str:
    """A random product of conjugated relators, length at most max_len.

    Every such word is a consequence of the defining relators, hence
    must normalize to the identity.  Raises ValueError when max_len is
    shorter than the longest relator or longer than MAX_CONSEQUENCE_LEN.
    """
    longest = max(len(relator) for _, relator in DEFAULT_RELATORS)
    if max_len < longest:
        raise ValueError(f"max_len must be at least {longest}, the longest relator")
    if max_len > MAX_CONSEQUENCE_LEN:
        raise ValueError(f"max_len must be at most {MAX_CONSEQUENCE_LEN}")
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
    of conjugated relators, normalizes to the identity.  ValueError when
    consequences < 0, or before any word is built when consequences *
    max_len passes MAX_CONSEQUENCE_LEN (a longer max_len alone is
    random_consequence's error)."""
    if consequences < 0:
        raise ValueError("consequences must be >= 0")
    if max_len <= MAX_CONSEQUENCE_LEN < consequences * max_len:
        raise ValueError(f"consequences * max_len must be at most {MAX_CONSEQUENCE_LEN}")
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
