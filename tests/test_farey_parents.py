"""The Stern-Brocot facts the plain-int farey code relies on, checked with
plain ints and math.gcd only.

parents() builds both parents without a gcd check and without sorting,
and build() lists its slopes without sorting them.  That is sound only
if both parents are in lowest terms, come out in ascending order, are
adjacent to v and to each other and sum to v componentwise, and if the
q-then-p loop of build() yields its slopes strictly increasing.  Nothing
here uses farey's own adjacency, order or arithmetic.
"""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.farey import Slope, build, parents

BIG = 10**12
WINDOWS = [(0, 1), (-2, 3), (1, 1), (-5, -3), (0, 0), (3, 7)]


def _ints(v) -> tuple[int, int]:
    p, q = v.p, v.q
    assert type(p) is int and type(q) is int
    return p, q


def _det(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _check_parents(v) -> None:
    p, q = _ints(v)
    pa, pb = parents(v)
    assert type(pa) is Slope and type(pb) is Slope
    a, b = _ints(pa), _ints(pb)
    for num, den in (a, b):
        assert den >= 0
        assert gcd(num, den) == 1
        assert den > 0 or num == 1  # infinity only as 1/0
    # ascending: for n/1 the parents are infinity, then (n-1)/1
    if q == 1:
        assert a == (1, 0) and b == (p - 1, 1)
    else:
        assert 0 < a[1] < q and 0 < b[1] < q
        assert a[0] * b[1] < b[0] * a[1]
    assert abs(_det(a, (p, q))) == 1
    assert abs(_det(b, (p, q))) == 1
    assert abs(_det(a, b)) == 1
    assert (a[0] + b[0], a[1] + b[1]) == (p, q)


def test_parents_of_every_vertex_of_build_128():
    verts = [v for v in build(128)._labels if v.q > 0]
    assert len(verts) == sum(gcd(p, q) == 1 for q in range(1, 129) for p in range(q + 1))
    for v in verts:
        _check_parents(v)


@given(st.integers(-BIG, BIG), st.integers(1, BIG))
@settings(max_examples=500, deadline=None)
def test_parents_of_large_slopes(p, q):
    g = gcd(p, q)
    _check_parents(Slope(p // g, q // g))
    _check_parents(Slope(p, 1))


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_build_lists_its_vertices_strictly_increasing(n, window):
    keys = [_ints(v)[::-1] for v in build(n, window)._labels]
    assert keys[0] == (0, 1)  # infinity
    assert all(x < y for x, y in zip(keys, keys[1:]))
    lo, hi = window
    for q, p in keys[1:]:
        assert gcd(p, q) == 1 and 1 <= q <= n and lo * q <= p <= hi * q
