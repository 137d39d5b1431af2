"""Independent arithmetic for checking the outputs of `goeritz`.

Nothing here calls the code under test.  Each check derives the expected
answer by another route:

* words in b, B, g, d, D are mapped to S3 x Z by d -> ((123), 0),
  g -> ((12), 0), b -> ((12), 1).  All six defining relators map to the
  identity, so equal group elements have equal images;
* coset-tree balls have a closed-form vertex count;
* truncated Farey complexes have closed-form vertex, edge and triangle
  counts in Euler's totient;
* contraction certificates are replayed with the benchmark's own
  adjacency |p s - q r| = 1.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

# S3 as permutation tuples of (0, 1, 2); an element of S3 x Z is (index, z)
_S3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))
_S3_INDEX = {perm: i for i, perm in enumerate(_S3)}
_MUL = tuple(
    tuple(_S3_INDEX[tuple(p[q[i]] for i in range(3))] for q in _S3) for p in _S3
)
_S3_INV = tuple(row.index(0) for row in _MUL)
_CYCLE, _CYCLE_INV, _SWAP = _S3_INDEX[(1, 2, 0)], _S3_INDEX[(2, 0, 1)], _S3_INDEX[(1, 0, 2)]
# a = t = bgBg maps to ((12)^4, 1 + 0 - 1 + 0), the identity
_LETTER_IMAGE = {
    "b": (_SWAP, 1),
    "B": (_SWAP, -1),
    "g": (_SWAP, 0),
    "d": (_CYCLE, 0),
    "D": (_CYCLE_INV, 0),
    "a": (0, 0),
    "t": (0, 0),
}

HOM_IDENTITY = (0, 0)


def hom(word: str) -> tuple[int, int]:
    """Image of a word in b, B, g, d, D (macros a, t) under the map to S3 x Z."""
    perm, z = 0, 0
    mul = _MUL
    for ch in word:
        p, dz = _LETTER_IMAGE[ch]
        perm = mul[perm][p]
        z += dz
    return perm, z


def hom_inverse(image: tuple[int, int]) -> tuple[int, int]:
    return _S3_INV[image[0]], -image[1]


def ball_vertex_count(radius: int, max_power: int) -> int:
    """Vertices of the coset-tree ball: each round a triple vertex adds two
    new pair vertices and a pair vertex adds 2 * max_power triple vertices."""
    pair = triple = 1
    total = 2
    for _ in range(radius):
        pair, triple = 2 * triple, 2 * max_power * pair
        total += pair + triple
    return total


def farey_counts(n: int) -> tuple[int, int, int]:
    """(V, E, F) of the Farey complex on [0, 1] truncated at denominator n,
    plus infinity: V = 2 + sum of phi(q) for q <= n, E = 2V - 3, F = V - 2."""
    vertices = 2 + sum(1 for q in range(1, n + 1) for p in range(1, q + 1) if gcd(p, q) == 1)
    return vertices, 2 * vertices - 3, vertices - 2


def complex_counts(complex_) -> tuple[int, int, int]:
    """Vertex, edge and triangle counts, read straight off the simplex set."""
    counts = [0, 0, 0]
    for s in complex_.simplices():
        counts[len(s) - 1] += 1
    return counts[0], counts[1], counts[2]


class Fraction(NamedTuple):
    """A slope parsed by the benchmark itself; infinity is 1/0."""

    p: int
    q: int


def parse_slope_text(text: str) -> Fraction:
    """Parse 'inf' or 'p/q' as printed by the CLI."""
    if text == "inf":
        return Fraction(1, 0)
    top, bottom = text.split("/")
    return Fraction(int(top), int(bottom))


def slopes_adjacent(u, v) -> bool:
    """Equal, or |p s - q r| = 1."""
    return (u.p, u.q) == (v.p, v.q) or abs(u.p * v.q - u.q * v.p) == 1


def in_star_of_infinity(v) -> bool:
    return v.q <= 1


def replay_certificate(loop, moves, final) -> bool:
    """Replay relabel/subdivide moves with the benchmark's own adjacency.

    Moves are read by their public fields: a relabel has pos, old, new; a
    subdivision has pos, insert.  The replayed loop must equal `final` and
    lie in the star of infinity."""
    cur = list(loop)
    m = len(cur)
    if any(not slopes_adjacent(cur[i], cur[(i + 1) % m]) for i in range(m)):
        return False
    for move in moves:
        m = len(cur)
        if hasattr(move, "insert"):
            if not 1 <= move.pos <= m:
                return False
            if not (slopes_adjacent(move.insert, cur[move.pos - 1])
                    and slopes_adjacent(move.insert, cur[move.pos % m])):
                return False
            cur.insert(move.pos, move.insert)
        else:
            if not 0 <= move.pos < m or cur[move.pos] != move.old:
                return False
            for u in (move.old, cur[move.pos - 1], cur[(move.pos + 1) % m]):
                if not slopes_adjacent(move.new, u):
                    return False
            cur[move.pos] = move.new
    return cur == list(final) and all(in_star_of_infinity(v) for v in cur)


# free group F(x, y): X = x^-1, Y = y^-1
_FREE_INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y"}


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _FREE_INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def free_cyclic_reduce(word: str) -> str:
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == _FREE_INVERSE[w[j - 1]]:
        i, j = i + 1, j - 1
    return w[i:j]


def free_inverse(word: str) -> str:
    return "".join(_FREE_INVERSE[ch] for ch in reversed(word))


def exponent_sums(word: str) -> tuple[int, int]:
    return word.count("x") - word.count("X"), word.count("y") - word.count("Y")
