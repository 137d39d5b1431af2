"""Farey complex fixture: a concrete flag complex with exact oracles.

Vertices are slopes p/q in lowest terms together with infinity = 1/0;
two slopes span an edge exactly when |p s - q r| = 1, and every
pairwise-adjacent triple spans a triangle (the Farey tessellation), so
the complex is flag.  The fixture drives the contraction engine of
:mod:`goeritz.contract` at desk scale: remoteness of p/q is the
denominator q, the base vertex is infinity, and the blocking oracle is
computed from the mediant structure.

Everything rests on one fact about the Farey graph: the neighbours of
p/q with a strictly smaller denominator are exactly the two
Stern-Brocot parents, the unique adjacent pair (a, b) with a + b = p/q
componentwise (for an integer n/1 they are infinity and (n-1)/1).  So
every edge joins a vertex to a parent and every triangle is a vertex
with both its parents, which is how build() finds them in linear work.

The same fact fixes blocking's witness in advance.  A b = 0 witness is
a parent of v adjacent to every member of X.  If no member of X is
deeper than v, every member is v, a parent of v or, when q(v) = 1, a
neighbouring integer, and the first parent of v is adjacent to all of
them; so b > 0 needs a member deeper than v.  Then v is a parent of
the first deepest member v'.  The only common neighbours of v and v'
are the other parent of v' and the mediant of v and v', which is deeper
than v' and so no member; hence either parent of v' is adjacent to v
and to every member adjacent to v', and w' is the first one.
contract.contract_loop asks blocking only at a position of maximal
remoteness, where no member is deeper than v, so with these oracles
every move it makes is a Relabel.

A Slope is the tuple (q, p), so every layer hashes and sorts slopes in C.
The public constructor Slope(p, q) checks lowest terms.  The hot paths
here skip that check, building the tuple with tuple.__new__, only where
lowest terms hold by construction: build() for each p/q it has just
tested with gcd, and the parent arithmetic for both parents, each of
which is Farey-adjacent to a reduced slope and so is reduced itself.
For q >= 2 the parents r/s and (p-r)/(q-s) of p/q come from
p*s - r*q = 1, so r*q - p*s = -1 and r/s < (p-r)/(q-s): they come out
in ascending order with no comparison
(Graham, Knuth and Patashnik, Concrete Mathematics, section 4.5).

parse_slope reads 'inf', 'p/q' or an integer.  Like amalgam.parse and
words.parse_word it raises TypeError on anything but a str, and
ValueError on text that names no slope.

This module is an analogue used as an engine fixture, not a model of
the disk complex the rest of the package is about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import Iterable

from .contract import check_blocking_answer
from .simplicial import Complex, _from_ids

__all__ = [
    "Slope",
    "INFINITY",
    "slope",
    "parse_slope",
    "adjacent",
    "remoteness",
    "mediant",
    "parents",
    "neighbours",
    "blocking",
    "build",
    "VERTEX_CAP",
    "SAMPLE_CAP",
    "AxiomReport",
    "verify_axioms",
    "random_based_loop",
    "BASE",
]


def _check_ints(p: int, q: int) -> None:
    # bool and the other int subclasses are refused too
    if type(p) is not int or type(q) is not int:
        name, value = ("p", p) if type(p) is not int else ("q", q)
        raise TypeError(f"slope {name} must be an int, not {type(value).__name__}")


class Slope(tuple):
    """A slope p/q of ints in lowest terms with q >= 0; 1/0 is infinity.

    Held as the tuple (q, p): hash, == and order (q, then p) run in C.  It
    equals the tuple (q, p) but does not iterate, so it never unpacks as a pair.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Slope":
        _check_ints(p, q)
        if q < 0:
            raise ValueError("denominator must be non-negative")
        if q == 0 and p != 1:
            raise ValueError("infinity is represented as 1/0")
        if q > 0 and gcd(abs(p), q) != 1:
            raise ValueError(f"{p}/{q} is not in lowest terms")
        return tuple.__new__(cls, (q, p))

    p = property(itemgetter(1), doc="numerator")
    q = property(itemgetter(0), doc="denominator")

    def __reduce__(self) -> tuple:
        return Slope, (self.p, self.q)

    def __iter__(self):
        raise TypeError("a Slope is one vertex; read .p and .q")

    def __repr__(self) -> str:
        return f"Slope(p={self[1]}, q={self[0]})"

    def __str__(self) -> str:
        return "inf" if self[0] == 0 else f"{self[1]}/{self[0]}"


_trusted = tuple.__new__  # _trusted(Slope, (q, p)) for a p/q known to be a slope


INFINITY = Slope(1, 0)
BASE = INFINITY
VERTEX_CAP = 100_000  # the most vertices build lists, as tree.ball's default cap
SAMPLE_CAP = 1_000_000  # the most samples verify_axioms draws, about 5 s of checks


def slope(p: int, q: int) -> Slope:
    """Normalize a fraction of ints to a Slope."""
    _check_ints(p, q)
    if q == 0:
        if p == 0:
            raise ValueError("0/0 is not a slope")
        return INFINITY
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return Slope(p // g, q // g)


def parse_slope(text: str) -> Slope:
    """Parse 'inf', 'p/q' or a bare integer; TypeError for a non-str,
    ValueError for any other text."""
    if not isinstance(text, str):
        raise TypeError(f"slope must be a string, not {type(text).__name__}")
    text = text.strip()
    if text == "inf":
        return INFINITY
    if "/" in text:
        top, bottom = text.split("/", 1)
        return slope(int(top), int(bottom))
    return Slope(int(text), 1)


def adjacent(u: Slope, v: Slope) -> bool:
    """Equal or intersecting once."""
    return u == v or abs(u.p * v.q - u.q * v.p) == 1


def remoteness(v: Slope) -> int:
    """Denominator: 0 exactly at the base vertex (infinity)."""
    return v.q


def mediant(u: Slope, v: Slope) -> Slope:
    return slope(u.p + v.p, u.q + v.q)


def parents(v: Slope) -> tuple[Slope, Slope]:
    """The unique adjacent pair with mediant v.

    For q >= 2 both parents have strictly smaller denominator; for an
    integer n/1 they are (infinity, n-1).  Infinity itself has no
    parents.
    """
    q = v.q
    if q == 0:
        raise ValueError("infinity has no parents")
    return _parents(q, v.p)


def _parents(q: int, p: int) -> tuple[Slope, Slope]:
    """parents() of the slope p/q, q >= 1, in ascending order."""
    if q == 1:
        return (INFINITY, _trusted(Slope, (1, p - 1)))
    s = pow(p, -1, q)  # p*s = 1 + r*q for some r
    r = (s * p - 1) // q
    return (_trusted(Slope, (s, r)), _trusted(Slope, (q - s, p - r)))


def neighbours(v: Slope, bound: int) -> list[Slope]:
    """Farey neighbours of v along the chain parent + k*v, |k| <= bound.

    For infinity this is the integer slopes -bound..bound.  The chain
    covers every neighbour as the bound grows.  Its 2 * bound + 1 slopes
    are distinct and nonzero: the first parent a (infinity for an integer)
    has |det(a, v)| = 1, so det(a + k*v, a + j*v) = (j - k) det(a, v).
    """
    if v == INFINITY:
        return [Slope(n, 1) for n in range(-bound, bound + 1)]
    a = parents(v)[0]
    return sorted(slope(a.p + k * v.p, a.q + k * v.q) for k in range(-bound, bound + 1))


def blocking(x_members: Iterable[Slope], v: Slope) -> tuple[int, object]:
    """Blocking value and witness for an adjacency pair (X, v).

    Returns (0, w) when some vertex w adjacent to v and to every member
    of X has smaller remoteness than v; the candidates are exactly the
    parents of v.  Otherwise returns (sum of member remotenesses,
    (v', w')) where v' is the first member of greatest denominator and
    w' its first parent, which the module docstring shows is adjacent
    to v and to every member of X adjacent to v'.

    >>> blocking((Slope(1, 3), Slope(2, 3)), Slope(1, 2))
    (6, (Slope(p=1, q=3), Slope(p=0, q=1)))
    """
    xs = tuple(sorted(x_members))
    q = v.q
    if q == 0:
        raise ValueError("blocking needs a vertex of positive remoteness")
    p = v.p
    for u in xs:
        if u != v and abs(u.p * q - u.q * p) != 1:
            raise ValueError(f"{u} is not adjacent to {v}: not an adjacency pair")
    for w in _parents(q, p):
        w_q, w_p = w[0], w[1]
        # for an integer slope the second parent has the same
        # denominator, so it is not a legal witness
        if w_q < q:
            for u in xs:
                if u != w and abs(u.p * w_q - u.q * w_p) != 1:
                    break
            else:
                return 0, w
    rs = [u.q for u in xs]
    max_r = max(rs)
    vp = xs[rs.index(max_r)]
    return sum(rs), (vp, _parents(max_r, vp.p)[0])


def build(n: int, window: tuple[int, int] = (0, 1)) -> Complex:
    """Truncated Farey complex: slopes with denominator at most n and
    value inside the window, plus infinity; ValueError once the candidates pass VERTEX_CAP.

    Edges and triangles come from the two parents of each vertex (see the
    module docstring); a simplex is kept when the window keeps all of
    its vertices.  The list is closed under faces by construction, so it
    becomes the complex as built, without a second closure pass.

    >>> sorted(str(v) for v in build(1).vertices())
    ['0/1', '1/1', 'inf']
    """
    if n < 1:
        raise ValueError("need n >= 1")
    (lo_num, lo_den), (hi_num, hi_den) = (end.as_integer_ratio() for end in window)
    if lo_num * hi_den > hi_num * lo_den:
        raise ValueError(f"window ({window[0]}, {window[1]}) has lower end above upper end")
    index = {INFINITY: 0}  # slope -> id, in id order
    simplices = [(0,)]
    # q, then p, ascending: the slopes come out sorted and distinct, so
    # the ids follow the order Complex gives labels, and both parents of
    # a slope sort before it and already have their ids
    for q in range(1, n + 1):
        p_lo = -(-lo_num * q // lo_den)  # ceil(lo*q)
        p_hi = hi_num * q // hi_den  # floor(hi*q)
        if len(index) + p_hi - p_lo + 1 > VERTEX_CAP:
            raise ValueError(f"build exceeded vertex cap {VERTEX_CAP}")
        for p in range(p_lo, p_hi + 1):
            if gcd(p, q) == 1:
                w = len(index)
                index[_trusted(Slope, (q, p))] = w
                simplices.append((w,))
                pa, pb = _parents(q, p)
                a, b = index.get(pa), index.get(pb)
                if a is not None:
                    simplices.append((a, w))
                if b is not None:
                    simplices.append((b, w))
                    if a is not None:
                        simplices.append((a, b, w) if a < b else (b, a, w))
    # Closed under faces as built: each edge joins a vertex to a present
    # parent, and a triangle's third edge joins the two parents, one of
    # which is a parent of the other, so it is listed with that vertex.
    return _from_ids(tuple(index), simplices)


@dataclass
class AxiomReport:
    """Outcome of sampling the oracle axioms on a truncated complex."""

    n: int
    samples: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(
    n: int = 10, samples: int = 500, seed: int = 0, window: tuple[int, int] = (0, 1)
) -> AxiomReport:
    """Sample random adjacency pairs in build(n, window) and check every
    clause of the blocking contract with contract.check_blocking_answer,
    plus the strict decrease after a replacement.  Violations are
    reported verbatim, never repaired.  ValueError when samples < 0 or
    samples > SAMPLE_CAP, or when samples > 0 and the window holds no
    finite slope to sample."""
    _check_sample_count(samples)  # before the build, as _check_axioms checks it
    return _check_axioms(build(n, window), n, samples, seed, window)


def _check_sample_count(samples: int) -> None:
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if samples > SAMPLE_CAP:
        raise ValueError(f"samples must be at most {SAMPLE_CAP}")


def _check_axioms(complex_: Complex, n: int, samples: int, seed: int, window: tuple) -> AxiomReport:
    """verify_axioms on an already built complex, build(n, window): its
    label table holds only vertices, sorted, so ids sort as their slopes."""
    _check_sample_count(samples)
    report = AxiomReport(n, samples)
    labels = complex_._labels
    for u in labels:
        if remoteness(u) == 0 and not adjacent(u, BASE):
            report.violations.append(f"remoteness 0 at {u} outside the base star")
    positive = [i for i, u in enumerate(labels) if remoteness(u) > 0]
    if samples > 0 and not positive:
        raise ValueError(
            f"build({n}, window=({window[0]}, {window[1]})) has no finite slope to sample"
        )
    neighbours, _ = complex_._graph()
    stars: dict[int, list[int]] = {}  # each sampled star, sorted on its first draw
    rng = random.Random(seed)
    for _ in range(samples):
        i = rng.choice(positive)
        star = stars.get(i)
        if star is None:
            star = stars[i] = sorted(neighbours[i] | {i})
        v = labels[i]
        xs = tuple(labels[rng.choice(star)] for _ in range(rng.randint(0, 3)))
        value, witness = blocking(xs, v)
        problems = check_blocking_answer(adjacent, remoteness, xs, v, value, witness)
        report.violations.extend(problems)
        if value > 0 and not problems:
            vp, wp = witness
            ys = list(xs)
            ys.remove(vp)
            ys.append(wp)
            new_value, _ = blocking(tuple(ys), v)
            if new_value >= value:
                report.violations.append(
                    f"blocking did not decrease: {value} -> {new_value} at {v}"
                )
    return report


def random_based_loop(
    seed: int, max_denominator: int = 50, min_steps: int = 3, max_steps: int = 8
) -> list[Slope]:
    """A seeded random based loop: a neighbour walk away from infinity
    followed by a parent descent back home."""
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    if min_steps < 0:
        raise ValueError(f"min_steps must be >= 0, got {min_steps}")
    if min_steps > max_steps:
        raise ValueError(f"min_steps {min_steps} exceeds max_steps {max_steps}")
    rng = random.Random(seed)
    path = [INFINITY]
    current = INFINITY
    for _ in range(rng.randint(min_steps, max_steps)):
        options = [
            u
            for u in neighbours(current, 4)
            if u.q <= max_denominator and abs(u.p) <= 3 * max_denominator
        ]
        current = rng.choice(options)
        path.append(current)
    while current != INFINITY:
        options = [u for u in parents(current) if u.q < current.q]
        current = rng.choice(options)
        if current != INFINITY:
            path.append(current)
    return path
