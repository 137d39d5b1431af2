"""The three finite-normal-form stabilizer groups behind the amalgam.

The genus-2 Goeritz group decomposes as an amalgamated free product of
two vertex stabilizers over an edge stabilizer, each with an exact
normal form on small ints.  :mod:`goeritz.amalgam` applies the exchange
rules below to plain ints.  ``EdgeStabilizer`` is the tail of its normal
forms (``is_identity``, ``str``); ``TRIPLE_ELEMENTS``, ``EDGE_ELEMENTS``
and the triple ``str`` print in ``goeritz stabilizers``; ``__mul__`` and
``decompose`` state the rules for perfbench's counters and the rewriting
reference in the tests.  tests/test_stabilizers.py checks the group laws.

Pair stabilizer  (infinite):
    generated by b and the involution g, with the central involution
    t = b g b^-1 g.  Relations: g^2 = t^2 = 1, t central, g b g = t b.
    Every element is uniquely  b^k t^e g^d  with k in Z and e, d bits,
    so the group is (Z x Z/2) semidirect Z/2.

Triple stabilizer  (order 12):
    generated by the order-3 element d, the involution g with
    g d g = d^-1, and a central involution a.  Every element is
    uniquely  d^m g^c a^e, giving S_3 x Z/2.

Edge stabilizer  (order 4):
    the Klein group {1, g, a, ga}.  It embeds in the pair stabilizer by
    g -> g, a -> t and in the triple stabilizer by inclusion.

Multiplying out the normal forms only ever needs two exchange rules:

    g . b^k = b^k . t^k g        (pair side)
    g . d^m = d^(-m) . g         (triple side)

with t and a passing through everything.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PairStabilizer",
    "TripleStabilizer",
    "EdgeStabilizer",
    "EDGE_IDENTITY",
    "EDGE_G",
    "EDGE_A",
    "EDGE_GA",
    "TRIPLE_ELEMENTS",
    "EDGE_ELEMENTS",
]


@dataclass(frozen=True, slots=True)
class EdgeStabilizer:
    """Klein four-group element g^c a^e with bits c, e."""

    g: int
    a: int

    def __post_init__(self) -> None:
        if self.g not in (0, 1) or self.a not in (0, 1):
            raise ValueError(f"edge stabilizer bits must be 0/1, got {self!r}")

    def __mul__(self, other: "EdgeStabilizer") -> "EdgeStabilizer":
        return EdgeStabilizer((self.g + other.g) % 2, (self.a + other.a) % 2)

    def is_identity(self) -> bool:
        return self.g == 0 and self.a == 0

    def __str__(self) -> str:
        return ("g" * self.g + "a" * self.a) or "1"


@dataclass(frozen=True, slots=True)
class PairStabilizer:
    """Element b^k t^t_bit g^g_bit of the pair stabilizer."""

    k: int
    t: int
    g: int

    def __post_init__(self) -> None:
        if self.t not in (0, 1) or self.g not in (0, 1):
            raise ValueError(f"pair stabilizer bits must be 0/1, got {self!r}")

    def __mul__(self, other: "PairStabilizer") -> "PairStabilizer":
        # move other's b^m leftwards past our trailing g^g: each pass
        # across g contributes one central t per power of b
        m, extra_t = other.k, (self.g * other.k) % 2
        return PairStabilizer(
            self.k + m,
            (self.t + other.t + extra_t) % 2,
            (self.g + other.g) % 2,
        )

    def decompose(self) -> tuple[int, EdgeStabilizer]:
        """Split as b^k times an edge stabilizer element."""
        return self.k, EdgeStabilizer(self.g, self.t)


@dataclass(frozen=True, slots=True)
class TripleStabilizer:
    """Element d^d_pow g^g_bit a^a_bit of the triple stabilizer."""

    d: int
    g: int
    a: int

    def __post_init__(self) -> None:
        if self.d not in (0, 1, 2):
            raise ValueError(f"d power must be 0..2, got {self!r}")
        if self.g not in (0, 1) or self.a not in (0, 1):
            raise ValueError(f"triple stabilizer bits must be 0/1, got {self!r}")

    def __mul__(self, other: "TripleStabilizer") -> "TripleStabilizer":
        # dihedral exchange: g d^m = d^-m g; a is central
        m = other.d if self.g == 0 else (-other.d) % 3
        return TripleStabilizer(
            (self.d + m) % 3,
            (self.g + other.g) % 2,
            (self.a + other.a) % 2,
        )

    def decompose(self) -> tuple[int, EdgeStabilizer]:
        """Split as d^m times an edge stabilizer element."""
        return self.d, EdgeStabilizer(self.g, self.a)

    def __str__(self) -> str:
        parts = []
        if self.d:
            parts.append(f"d^{self.d}")
        if self.g:
            parts.append("g")
        if self.a:
            parts.append("a")
        return " ".join(parts) or "1"


EDGE_IDENTITY = EdgeStabilizer(0, 0)
EDGE_G = EdgeStabilizer(1, 0)
EDGE_A = EdgeStabilizer(0, 1)
EDGE_GA = EdgeStabilizer(1, 1)


# all twelve elements of the triple stabilizer, in lexicographic order
TRIPLE_ELEMENTS = tuple(
    TripleStabilizer(d, g, a) for d in range(3) for g in range(2) for a in range(2)
)
# all four elements of the edge stabilizer
EDGE_ELEMENTS = (EDGE_IDENTITY, EDGE_G, EDGE_A, EDGE_GA)
