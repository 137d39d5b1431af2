# The slope-fixture code that goeritz.farey and goeritz.contract used
# before Stern-Brocot edges and incremental loop bookkeeping, kept
# unchanged as an independent differential oracle for
# tests/test_slope_differential.py and the "before" rows of
# benchmarks/slope.py.  build and the star table of verify_axioms compare
# every pair of vertices; contract_loop recomputes remoteness and the
# base-star test at every position on every move.  The slope type is a
# verbatim copy of farey.Slope as a (q, p) tuple, and Complex is the
# former simplicial layer of tests/simplicial_reference.py, which closes
# every simplex under faces, so neither the behaviour nor the timings
# here move with the package's slope type or simplicial layer.
# check_blocking_answer is a verbatim copy of goeritz.contract's, so a
# fault in the package's contract check cannot hide here; _reflexive is
# the wrapper goeritz.contract once put round every adjacency oracle, so
# the two agree on every oracle that keeps the reflexive contract.  The
# oracles (adjacent, remoteness, blocking) are the package's, and
# det_intersection is tests/farey_reference.py's.

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Sequence

from goeritz.contract import (
    DEFAULT_FUEL,
    Adjacency,
    Blocking,
    FuelExhausted,
    HomotopyCertificate,
    OracleContractViolation,
    Relabel,
    Remoteness,
    Subdivide,
    Vertex,
)
from goeritz.farey import (
    AxiomReport,
    adjacent,
    blocking,
    remoteness,
)
from farey_reference import WitnessNotFound, det_intersection
from simplicial_reference import Complex


def _reflexive(adjacent: Adjacency) -> Adjacency:
    return lambda u, v: u == v or adjacent(u, v)


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


def build(n: int, window: tuple[int, int] = (0, 1)) -> Complex:
    """Truncated Farey complex: slopes with denominator at most n and
    value inside the window, plus infinity.

    >>> sorted(str(v) for v in build(1).vertices())
    ['0/1', '1/1', 'inf']
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"window ({window[0]}, {window[1]}) has lower end above upper end")
    verts = [INFINITY]
    for q in range(1, n + 1):
        p_lo = -(-lo.numerator * q // lo.denominator)  # ceil(lo*q)
        p_hi = hi.numerator * q // hi.denominator  # floor(hi*q)
        for p in range(p_lo, p_hi + 1):
            if gcd(abs(p), q) == 1:
                verts.append(Slope(p, q))
    verts = sorted(set(verts))
    nbrs: dict[Slope, set[Slope]] = {u: set() for u in verts}
    simplices: list[tuple] = [(u,) for u in verts]
    for i, u in enumerate(verts):
        for w in verts[i + 1 :]:
            if det_intersection(u, w) == 1:
                nbrs[u].add(w)
                nbrs[w].add(u)
                simplices.append((u, w))
    for u in verts:
        for w in sorted(nbrs[u]):
            if not u < w:
                continue
            for z in sorted(nbrs[u] & nbrs[w]):
                if w < z:
                    simplices.append((u, w, z))
    return Complex(simplices)


def verify_axioms(n: int = 10, samples: int = 500, seed: int = 0) -> AxiomReport:
    """Sample random adjacency pairs in build(n) and check every clause
    of the blocking contract with contract.check_blocking_answer, plus
    the strict decrease after a replacement.  Violations are reported
    verbatim, never repaired."""
    report = AxiomReport(n, samples)
    complex_ = build(n)
    verts = sorted(complex_.vertices())
    for u in verts:
        if remoteness(u) == 0 and not adjacent(u, BASE):
            report.violations.append(f"remoteness 0 at {u} outside the base star")
    positive = [u for u in verts if remoteness(u) > 0]
    stars = {u: sorted(w for w in verts if adjacent(w, u)) for u in positive}
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


def contract_loop(
    adjacent: Adjacency,
    remoteness: Remoteness,
    blocking: Blocking,
    loop: Sequence[Vertex],
    base: Vertex,
    fuel: int = DEFAULT_FUEL,
) -> HomotopyCertificate:
    """Contract a based loop into the star of the base vertex.

    Raises ValueError for an invalid input loop, FuelExhausted when the
    move budget runs out, OracleContractViolation when an oracle answer
    contradicts its contract.
    """
    adj = _reflexive(adjacent)
    cur = list(loop)
    if not cur:
        raise ValueError("loop must be nonempty")
    if cur[0] != base:
        raise ValueError("loop must start at the base vertex")
    m = len(cur)
    for idx, v in enumerate(cur):
        if not adj(v, cur[(idx + 1) % m]):
            raise ValueError(f"loop images at {idx}, {(idx + 1) % m} are not adjacent")

    def remote_checked(v: Vertex) -> int:
        r = remoteness(v)
        if r < 0:
            raise OracleContractViolation(f"negative remoteness {r} at {v!r}")
        if r == 0 and not adj(v, base):
            raise OracleContractViolation(
                f"remoteness 0 at {v!r} which is not adjacent to the base"
            )
        return r

    def remote_known(u: Vertex) -> int:
        # oracles are pure, so the active image v still has remoteness n
        return n if u == v else remote_checked(u)

    moves: list = []
    prev_measure: tuple[int, int, int] | None = None
    while True:
        m = len(cur)
        rs = [remote_checked(v) for v in cur]
        if all(adj(v, base) for v in cur):
            return HomotopyCertificate(moves, list(cur))
        n = max(rs)
        i = rs.index(n)
        v = cur[i]
        left_i, right_i = (i - 1) % m, (i + 1) % m
        x_pair = (cur[left_i], cur[right_i])
        value, witness = blocking(x_pair, v)
        measure = (n, rs.count(n), value)
        if prev_measure is not None and not measure < prev_measure:
            raise OracleContractViolation(
                f"progress measure did not decrease: {prev_measure} -> {measure}"
            )
        prev_measure = measure
        if fuel <= 0:
            raise FuelExhausted(
                f"fuel exhausted with {m} positions at max remoteness {n}"
            )
        fuel -= 1
        problems = check_blocking_answer(adj, remote_known, x_pair, v, value, witness)
        if problems:
            raise OracleContractViolation(problems[0])
        if value == 0:
            moves.append(Relabel(i, v, witness))
            cur[i] = witness
        else:
            vp, wp = witness
            sides = [j for j in sorted({left_i, right_i}) if cur[j] == vp]
            j = sides[0]
            if j == right_i:
                insert_at = i + 1  # slot between i and its right neighbour
            else:
                insert_at = i if i > 0 else m  # slot between the left neighbour and i
            moves.append(Subdivide(insert_at, wp))
            cur.insert(insert_at, wp)
