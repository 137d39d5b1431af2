# The int-tuple implementation that goeritz.words had before it moved to
# plain strings, kept unchanged as an independent differential oracle
# for tests/test_words_differential.py.
"""Words in the rank-two free group F = <x, y>.

A word is a finite sequence of the four letters x, x^-1, y, y^-1.  The
text encoding is one character per letter, lowercase for a generator and
uppercase for its inverse, so "xyXY" denotes the commutator
x y x^-1 y^-1.

Besides free and cyclic reduction this module decides primitivity (is a
word part of some free basis?) with the classical Whitehead algorithm:
a cyclically reduced word is primitive iff repeated application of
length-decreasing Whitehead automorphisms brings it down to a single
letter.  There is also the cheap certificate used throughout the
package: a cyclically reduced word that contains both x and x^-1 (or
both y and y^-1) is never primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Letter",
    "X",
    "X_INV",
    "Y",
    "Y_INV",
    "LETTERS",
    "ReducedWord",
    "CyclicWord",
    "Primitivity",
    "parse_word",
    "format_word",
    "reduce",
    "cyclic_reduce",
    "abelianize",
    "mixed_sign_criterion",
    "is_primitive",
    "iter_cyclically_reduced",
]


@dataclass(frozen=True, slots=True)
class Letter:
    """One of x, x^-1, y, y^-1."""

    base: str
    sign: int

    def __post_init__(self) -> None:
        if self.base not in ("x", "y") or self.sign not in (1, -1):
            raise ValueError(f"bad letter ({self.base!r}, {self.sign})")

    def inverse(self) -> "Letter":
        return Letter(self.base, -self.sign)

    @property
    def index(self) -> int:
        # canonical letter order: x < x^-1 < y < y^-1
        return (0 if self.base == "x" else 2) + (0 if self.sign == 1 else 1)

    def __str__(self) -> str:
        ch = self.base
        return ch if self.sign == 1 else ch.upper()


X = Letter("x", 1)
X_INV = Letter("x", -1)
Y = Letter("y", 1)
Y_INV = Letter("y", -1)
LETTERS = (X, X_INV, Y, Y_INV)

# integer encoding used by the internal routines; Letter.index agrees with it
_INV = {0: 1, 1: 0, 2: 3, 3: 2}
_CHARS = "xXyY"


def _encode(letters: Iterable[Letter]) -> tuple[int, ...]:
    return tuple(l.index for l in letters)


def _decode(ints: Iterable[int]) -> tuple[Letter, ...]:
    return tuple(LETTERS[i] for i in ints)


def _reduce_ints(ints: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for i in ints:
        if out and out[-1] == _INV[i]:
            out.pop()
        else:
            out.append(i)
    return tuple(out)


def _cyclic_reduce_ints(ints: Sequence[int]) -> tuple[int, ...]:
    w = list(_reduce_ints(ints))
    while len(w) >= 2 and w[0] == _INV[w[-1]]:
        w = w[1:-1]
    return tuple(w)


def _canonical_rotation(ints: Sequence[int]) -> tuple[int, ...]:
    if not ints:
        return ()
    w = tuple(ints)
    return min(w[i:] + w[:i] for i in range(len(w)))


class ReducedWord:
    """A freely reduced word, i.e. no letter is followed by its inverse."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for a, b in zip(letters, letters[1:]):
            if a == b.inverse():
                raise ValueError(f"word not freely reduced at {a}{b}")
        object.__setattr__(self, "_letters", letters)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ReducedWord) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(("ReducedWord", self._letters))

    def __repr__(self) -> str:
        return f"ReducedWord({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(l.inverse() for l in reversed(self._letters))


class CyclicWord:
    """A cyclically reduced word stored in its canonical rotation.

    The canonical rotation is the lexicographically least one under the
    letter order x < x^-1 < y < y^-1, so two cyclic words are equal as
    values exactly when they are rotations of one another.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        ints = tuple(l.index for l in letters)
        if _cyclic_reduce_ints(ints) != ints:
            raise ValueError("word is not cyclically reduced")
        if _canonical_rotation(ints) != ints:
            raise ValueError("cyclic word is not in canonical rotation")
        object.__setattr__(self, "_letters", tuple(LETTERS[i] for i in ints))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(("CyclicWord", self._letters))

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str) -> ReducedWord:
    """Parse a word in the one-character-per-letter encoding and reduce it.

    >>> str(parse_word("xyY"))
    'x'
    """
    ints = []
    for ch in text:
        i = _CHARS.find(ch)
        if i < 0:
            raise ValueError(f"invalid character {ch!r}; expected one of 'xXyY'")
        ints.append(i)
    return ReducedWord(_decode(_reduce_ints(ints)))


def format_word(w: ReducedWord | CyclicWord | Iterable[Letter]) -> str:
    return "".join(str(l) for l in w)


def reduce(letters: Iterable[Letter]) -> ReducedWord:
    """Freely reduce a raw letter sequence.

    >>> str(reduce(parse_word("xy").letters + parse_word("Yx").letters))
    'xx'
    """
    return ReducedWord(_decode(_reduce_ints(l.index for l in letters)))


def cyclic_reduce(word: ReducedWord | Iterable[Letter]) -> CyclicWord:
    """Cyclically reduce a word and put it in canonical rotation.

    The result generates the same conjugacy class: some conjugate of the
    input equals the result as a group element.

    >>> str(cyclic_reduce(parse_word("xxyX")))
    'xy'
    """
    letters = word.letters if isinstance(word, ReducedWord) else tuple(word)
    ints = _cyclic_reduce_ints([l.index for l in letters])
    return CyclicWord(_decode(_canonical_rotation(ints)))


def abelianize(word: ReducedWord | CyclicWord | Iterable[Letter]) -> tuple[int, int]:
    """Exponent sums (on x, on y).  A primitive word always has
    coprime exponent sums (gcd(0, n) = |n| counts as coprime iff n = 1)."""
    ex = ey = 0
    for l in word:
        if l.base == "x":
            ex += l.sign
        else:
            ey += l.sign
    return ex, ey


class Primitivity(Enum):
    """Verdict of the mixed-sign certificate."""

    CERTIFIED_NON_PRIMITIVE = "certified_non_primitive"
    INCONCLUSIVE = "inconclusive"


def mixed_sign_criterion(word: CyclicWord) -> Primitivity:
    """Cheap non-primitivity certificate for a cyclically reduced word.

    If the word contains x and x^-1 simultaneously (or y and y^-1), it
    cannot be part of a free basis.  The converse fails: xxyy is not
    primitive yet has no mixed signs, so the other answer is only
    "inconclusive".
    """
    if not isinstance(word, CyclicWord):
        raise ValueError("mixed_sign_criterion expects a CyclicWord")
    if len(word) == 0:
        raise ValueError("mixed_sign_criterion expects a nonempty word")
    mask = 0
    for l in word:
        mask |= 1 << l.index
    if (mask & 0b0011) == 0b0011 or (mask & 0b1100) == 0b1100:
        return Primitivity.CERTIFIED_NON_PRIMITIVE
    return Primitivity.INCONCLUSIVE


def _whitehead_maps() -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Type-II Whitehead automorphisms of F_2: fix a multiplier letter a,
    # send the other generator z to one of  z*a,  a^-1*z,  a^-1*z*a.
    # Twelve nontrivial maps in total; the set is closed under inverses,
    # which is what makes greedy descent complete.
    maps = []
    for a in range(4):
        z = 2 if a < 2 else 0  # base letter the map acts on
        for img in ((z, a), (_INV[a], z), (_INV[a], z, a)):
            table = [(i,) for i in range(4)]
            table[z] = img
            table[_INV[z]] = tuple(_INV[i] for i in reversed(img))
            maps.append(tuple(table))
    return tuple(maps)


_WHITEHEAD_MAPS = _whitehead_maps()


def _descend_once(ints: tuple[int, ...]) -> tuple[int, ...] | None:
    # first map (in the fixed enumeration) that strictly shortens the
    # cyclic word, or None when the word is already Whitehead-minimal
    n = len(ints)
    for table in _WHITEHEAD_MAPS:
        image: list[int] = []
        for i in ints:
            image.extend(table[i])
        cand = _cyclic_reduce_ints(image)
        if len(cand) < n:
            return cand
    return None


def is_primitive(word: ReducedWord | CyclicWord) -> bool:
    """Decide whether the word is primitive, by Whitehead's algorithm.

    Greedy strict-length descent over the finite set of Whitehead
    automorphisms of F_2; a word is primitive iff the descent reaches a
    single letter.  The empty word is not primitive.

    >>> is_primitive(parse_word("xy"))
    True
    >>> is_primitive(parse_word("xyXY"))
    False
    """
    letters = tuple(word)
    ints = _canonical_rotation(_cyclic_reduce_ints([l.index for l in letters]))
    while True:
        if len(ints) == 0:
            return False
        if len(ints) == 1:
            return True
        shorter = _descend_once(ints)
        if shorter is None:
            return False
        ints = _canonical_rotation(shorter)


def iter_cyclically_reduced(max_len: int) -> Iterator[tuple[Letter, ...]]:
    """Yield every cyclically reduced word of length 1..max_len once."""
    for ints in _iter_cyclically_reduced_ints(max_len):
        yield _decode(ints)


def _iter_cyclically_reduced_ints(max_len: int) -> Iterator[tuple[int, ...]]:
    # depth-first over letter strings avoiding adjacent inverses, then a
    # final circular check between last and first letter
    stack: list[tuple[int, ...]] = [(i,) for i in reversed(range(4))]
    while stack:
        w = stack.pop()
        if w[-1] != _INV[w[0]] or len(w) == 1:
            yield w
        if len(w) < max_len:
            for i in range(4):
                if i != _INV[w[-1]]:
                    stack.append(w + (i,))
