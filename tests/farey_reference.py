# The slope-fixture oracles that goeritz.farey used before they moved onto
# plain-int arithmetic on the (q, p) tuple, kept unchanged as an
# independent differential oracle for tests/test_farey_differential.py
# and the "farey_reference" row of benchmarks/slope.py.  Slope builds
# every slope through a gcd check, parents() re-checks both parents and
# sorts them, adjacent() calls det_intersection(), blocking() goes
# through remoteness() and adjacent() for every comparison, and build()
# re-sorts its vertex list.  _check_axioms is the former body, which
# samples from an empty list when the window holds no finite slope.
# check_blocking_answer is a verbatim copy of goeritz.contract's, so a
# fault in the package's contract check cannot hide here; the simplicial
# layer is the package's.  WitnessNotFound is the exception the package's
# blocking declared for a failed b > 0 search before that witness took
# its closed form; the search kept here still raises it, and
# tests/slope_reference.py and tests/test_simplicial_differential.py
# import it from here.

from __future__ import annotations

import random
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from goeritz.contract import Adjacency, Remoteness, Vertex
from goeritz.farey import AxiomReport
from goeritz.simplicial import Complex, _from_ids


def check_blocking_answer(
    adjacent: Adjacency,
    remoteness: Remoteness,
    x: Sequence[Vertex],
    v: Vertex,
    value: int,
    witness,
) -> list[str]:
    """Every clause of the blocking contract (module docstring) that the
    answer (value, witness) to blocking(x, v) breaks; [] when it keeps
    them all.  `adjacent` must be reflexive.

    >>> line = lambda u, w: abs(u - w) <= 1
    >>> check_blocking_answer(line, abs, (1, 3), 2, 0, 1)
    ['b=0 witness 1 not adjacent to neighbour image 3']
    """
    if value < 0:
        return [f"negative blocking value {value!r}"]
    if value == 0:
        w = witness
        problems = []
        if not adjacent(w, v):
            problems.append(f"b=0 witness {w!r} not adjacent to {v!r}")
        if remoteness(w) >= remoteness(v):
            problems.append(f"b=0 witness {w!r} does not lower remoteness below {v!r}")
        for u in x:
            if not adjacent(u, w):
                problems.append(f"b=0 witness {w!r} not adjacent to neighbour image {u!r}")
        return problems
    try:
        vp, wp = witness
    except (TypeError, ValueError):
        return [f"b>0 witness {witness!r} is not a pair (v', w')"]
    if vp not in x:
        # every other clause is about v', so they say nothing here
        return [f"b>0 witness member {vp!r} is not a neighbour image"]
    problems = []
    if remoteness(wp) >= remoteness(vp):
        problems.append(f"b>0 replacement {wp!r} does not lower remoteness below {vp!r}")
    for u in x:
        if adjacent(u, vp) and not adjacent(u, wp):
            problems.append(f"b>0 replacement {wp!r} misses neighbour {u!r} of {vp!r}")
    if not adjacent(wp, v):
        problems.append(f"b>0 replacement {wp!r} not adjacent to active image {v!r}")
    return problems


class WitnessNotFound(RuntimeError):
    """No admissible blocking witness exists (never raised in practice)."""


class Slope(tuple):
    """A slope p/q in lowest terms with q >= 0; 1/0 is infinity.

    Held as the tuple (q, p): hash, == and order (q, then p) run in C.  It
    equals the tuple (q, p) but does not iterate, so it never unpacks as a pair.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Slope":
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
        return f"Slope(p={self.p}, q={self.q})"

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)
BASE = INFINITY


def det_intersection(u: Slope, v: Slope) -> int:
    """|p s - q r|, the geometric intersection number of the slopes."""
    return abs(u.p * v.q - u.q * v.p)


def adjacent(u: Slope, v: Slope) -> bool:
    """Equal or intersecting once."""
    return u == v or det_intersection(u, v) == 1


def remoteness(v: Slope) -> int:
    """Denominator: 0 exactly at the base vertex (infinity)."""
    return v.q


def parents(v: Slope) -> tuple[Slope, Slope]:
    """The unique adjacent pair with mediant v.

    For q >= 2 both parents have strictly smaller denominator; for an
    integer n/1 they are (infinity, n-1).  Infinity itself has no
    parents.
    """
    if v.q == 0:
        raise ValueError("infinity has no parents")
    if v.q == 1:
        return (INFINITY, Slope(v.p - 1, 1))
    s = pow(v.p, -1, v.q)  # p*s = 1 + r*q for some r
    r = (s * v.p - 1) // v.q
    a = Slope(r, s)
    b = Slope(v.p - r, v.q - s)
    if a.p * b.q < b.p * a.q:  # ascending numeric order
        return (a, b)
    return (b, a)


def blocking(x_members: Iterable[Slope], v: Slope) -> tuple[int, object]:
    """Blocking value and witness for an adjacency pair (X, v).

    Returns (0, w) when some vertex w adjacent to v and to every member
    of X has smaller remoteness than v; the candidates are exactly the
    parents of v.  Otherwise returns (sum of member remotenesses,
    (v', w')) where v' is a maximal-remoteness member and w' a parent
    of v' adjacent to v and to every member of X adjacent to v'.
    """
    xs = tuple(sorted(x_members))
    if remoteness(v) == 0:
        raise ValueError("blocking needs a vertex of positive remoteness")
    for u in xs:
        if not adjacent(u, v):
            raise ValueError(f"{u} is not adjacent to {v}: not an adjacency pair")
    for w in parents(v):
        # for an integer slope the second parent has the same
        # denominator, so it is not a legal witness
        if remoteness(w) < remoteness(v) and all(adjacent(u, w) for u in xs):
            return 0, w
    value = sum(remoteness(u) for u in xs)
    max_r = max(remoteness(u) for u in xs)
    for vp in xs:
        if remoteness(vp) != max_r or remoteness(vp) == 0:
            continue
        for wp in parents(vp):
            if remoteness(wp) >= remoteness(vp):
                continue
            if adjacent(wp, v) and all(
                adjacent(u, wp) for u in xs if adjacent(u, vp)
            ):
                return value, (vp, wp)
    raise WitnessNotFound(f"no witness for X={[str(u) for u in xs]}, v={v}")


def build(n: int, window: tuple[int, int] = (0, 1)) -> Complex:
    """Truncated Farey complex: slopes with denominator at most n and
    value inside the window, plus infinity.

    Edges and triangles come from one parents() call per vertex (see the
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
    verts = [INFINITY]
    for q in range(1, n + 1):
        p_lo = -(-lo_num * q // lo_den)  # ceil(lo*q)
        p_hi = hi_num * q // hi_den  # floor(hi*q)
        for p in range(p_lo, p_hi + 1):
            if gcd(abs(p), q) == 1:
                verts.append(Slope(p, q))
    verts = sorted(set(verts))
    index = {u: i for i, u in enumerate(verts)}
    simplices = [(i,) for i in range(len(verts))]
    for w in range(1, len(verts)):  # verts[0] is infinity, which has no parents
        pa, pb = parents(verts[w])
        a, b = index.get(pa), index.get(pb)
        # a parent sorts before its child, so w is the highest id
        if a is not None:
            simplices.append((a, w))
        if b is not None:
            simplices.append((b, w))
            if a is not None:
                simplices.append((min(a, b), max(a, b), w))
    # Closed under faces as built: each edge joins a vertex to a present
    # parent, and a triangle's third edge joins the two parents, one of
    # which is a parent of the other, so it is listed with that vertex.
    # The ids follow the sorted vertices, the order Complex gives labels.
    return _from_ids(tuple(verts), simplices)


def _check_axioms(complex_: Complex, n: int, samples: int, seed: int) -> AxiomReport:
    """verify_axioms on an already built complex (build(n, window))."""
    report = AxiomReport(n, samples)
    verts = sorted(complex_.vertices())
    for u in verts:
        if remoteness(u) == 0 and not adjacent(u, BASE):
            report.violations.append(f"remoteness 0 at {u} outside the base star")
    positive = [u for u in verts if remoteness(u) > 0]
    near: dict[Slope, list[Slope]] = {u: [u] for u in verts}
    labels = complex_._labels
    for s in complex_._simplices:
        if len(s) == 2:
            u, w = labels[s[0]], labels[s[1]]
            near[u].append(w)
            near[w].append(u)
    stars = {u: sorted(near[u]) for u in positive}
    rng = random.Random(seed)
    for _ in range(samples):
        v = rng.choice(positive)
        xs = tuple(rng.choice(stars[v]) for _ in range(rng.randint(0, 3)))
        try:
            value, witness = blocking(xs, v)
        except WitnessNotFound as err:
            report.violations.append(str(err))
            continue
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
