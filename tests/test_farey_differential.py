"""goeritz.farey against the former oracles kept in tests/farey_reference.py.

Every function the plain-int rewrite touched that the package still has
(Slope construction and text, adjacent, parents, blocking, build and
_check_axioms) is run on both sides.  Results are compared with their
types, and exceptions by type and text, so a non-Slope argument must
still fail the same way.  The reference works on its own copy of the
Slope class, so inputs are made once per side from the same (p, q).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import farey_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz import farey

BIG = 10**12
JUNK = ["junk", None, (2, 1), 7]
WINDOWS = [(0, 1), (-2, 3), (1, 1), (-5, -3), (0, 0), (3, 7)]


def _shape(x):
    """A result with its type: both Slope classes read as ("Slope", q, p)."""
    if isinstance(x, (farey.Slope, ref.Slope)):
        return ("Slope", x[0], x[1])
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(_shape(y) for y in x))
    return (type(x).__name__, x)


def _outcome(f, *args):
    try:
        return "ok", _shape(f(*args))
    except Exception as err:  # compared by type and text
        return type(err), str(err)


def _both(name: str, *args):
    """_outcome of farey.<name> and farey_reference.<name>, each on slopes
    of its own class (anything else is passed through unchanged)."""
    return _outcome(getattr(farey, name), *args), _outcome(
        getattr(ref, name), *_to_ref(args)
    )


def _to_ref(x):
    if isinstance(x, farey.Slope):
        return ref.Slope(x.p, x.q)
    if isinstance(x, (tuple, list)):
        return type(x)(_to_ref(y) for y in x)
    return x


@st.composite
def slopes(draw, bound: int = BIG):
    """Reduced p/q with |p|, q <= bound, integer slopes n/1, and infinity."""
    kind = draw(st.sampled_from(["fraction", "integer", "infinity"]))
    if kind == "infinity":
        return farey.INFINITY
    p = draw(st.integers(-bound, bound))
    if kind == "integer":
        return farey.Slope(p, 1)
    q = draw(st.integers(1, bound))
    g = gcd(p, q)
    return farey.Slope(p // g, q // g)


def _near(v: farey.Slope) -> list:
    """v, its parents and the two children v + parent: Farey neighbours of v."""
    if v == farey.INFINITY:
        return [v, farey.Slope(0, 1), farey.Slope(1, 1)]
    a, b = farey.parents(v)
    return [v, a, b, farey.mediant(a, v), farey.mediant(b, v)]


@given(st.integers(-BIG, BIG), st.integers(-3, BIG))
@settings(max_examples=300, deadline=None)
def test_slope_construction_matches_reference(p, q):
    new, old = _both("Slope", p, q)
    assert new == old
    if q > 0:
        g = gcd(p, q)
        new, old = _both("Slope", p // g, q // g)
        assert new == old


@given(slopes())
@settings(max_examples=300, deadline=None)
def test_slope_text_matches_reference(v):
    assert str(v) == str(_to_ref(v))
    assert repr(v) == repr(_to_ref(v))


@given(slopes(), slopes(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_adjacency_matches_reference(u, v, i, j):
    near_u, near_v = _near(u), _near(v)
    i, j = i % len(near_u), j % len(near_u)
    for a, b in [(u, v), (near_u[i], near_u[j]), (near_u[i], near_v[j % len(near_v)]),
                 (u, near_u[j])]:
        new, old = _both("adjacent", a, b)
        assert new == old, (a, b)


@given(slopes())
@settings(max_examples=400, deadline=None)
def test_parents_match_reference(v):
    new, old = _both("parents", v)
    assert new == old


@given(slopes(), st.lists(st.integers(0, 4), max_size=3))
@settings(max_examples=400, deadline=None)
def test_blocking_on_large_slopes_matches_reference(v, picks):
    near = _near(v)
    xs = [near[i % len(near)] for i in picks]
    new, old = _both("blocking", xs, v)
    assert new == old, (xs, v)


@given(
    st.integers(1, 64),
    st.sampled_from(WINDOWS),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_blocking_on_built_complexes_matches_reference(n, window, rng):
    complex_ = farey.build(n, window)
    verts = complex_._labels
    near = {v: [v] for v in verts}
    for s in complex_._simplices:
        if len(s) == 2:
            u, w = verts[s[0]], verts[s[1]]
            near[u].append(w)
            near[w].append(u)
    for v in rng.sample(verts, min(len(verts), 20)):
        for size in range(4):
            xs = [rng.choice(near[v]) for _ in range(size)]
            new, old = _both("blocking", xs, v)
            assert new == old, (xs, v)
        # one member drawn from anywhere, so it may break the adjacency pair
        xs = [rng.choice(near[v]), rng.choice(verts)]
        new, old = _both("blocking", xs, v)
        assert new == old, (xs, v)


@given(st.integers(1, 64), st.sampled_from(WINDOWS))
@settings(max_examples=60, deadline=None)
def test_build_matches_reference(n, window):
    new, old = farey.build(n, window), ref.build(n, window)
    assert [_shape(v) for v in new._labels] == [_shape(v) for v in old._labels]
    assert new._simplices == old._simplices


@pytest.mark.parametrize("window", WINDOWS + [(Fraction(1, 3), Fraction(2, 5)), (0.25, 0.5)])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 32])
def test_check_axioms_matches_reference(n, window):
    for seed, samples in ((0, 60), (1, 60), (2, 0)):
        new = _outcome(farey._check_axioms, farey.build(n, window), n, samples, seed, window)
        old = _outcome(ref._check_axioms, ref.build(n, window), n, samples, seed)
        if old[0] is IndexError:  # the window holds no finite slope to sample
            assert samples > 0 and n < 3
            assert new[0] is ValueError and new[1].startswith(f"build({n}, window=")
        else:
            assert new == old


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [2, 5, 17, 32])
def test_check_axioms_draws_the_same_pairs_as_reference(monkeypatch, n, window):
    """A clean report says nothing about which pairs were drawn, so the
    blocking calls of both sides are recorded and compared in order."""
    drawn: dict = {farey: [], ref: []}
    for module in drawn:
        def recorded(xs, v, calls=drawn[module], blocking=module.blocking):
            calls.append(_shape((tuple(xs), v)))
            return blocking(xs, v)
        monkeypatch.setattr(module, "blocking", recorded)
    farey._check_axioms(farey.build(n, window), n, 60, n, window)
    ref._check_axioms(ref.build(n, window), n, 60, n)
    assert drawn[farey] == drawn[ref] and drawn[farey]


@pytest.mark.parametrize("window", [(Fraction(1, 5), Fraction(3, 10)), (0.4, 0.45)])
def test_check_axioms_on_an_empty_window_raises_where_reference_crashed(window):
    with pytest.raises(IndexError):
        ref._check_axioms(ref.build(3, window), 3, 10, 0)
    new = _outcome(farey._check_axioms, farey.build(3, window), 3, 10, 0, window)
    text = f"build(3, window=({window[0]}, {window[1]})) has no finite slope to sample"
    assert new == (ValueError, text)
    # nothing to sample is fine
    assert farey._check_axioms(farey.build(3, window), 3, 0, 0, window) == ref._check_axioms(
        ref.build(3, window), 3, 0, 0
    )


def _junk_cases(junk, v, w):
    return [
        ("adjacent", junk, v), ("adjacent", v, junk),
        ("parents", junk),
        ("blocking", [junk], v), ("blocking", [w, junk], v), ("blocking", [junk, w], v),
        ("blocking", [w], junk), ("blocking", [], junk),
    ]


@given(st.sampled_from(JUNK), slopes(50), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_non_slope_arguments_fail_like_reference(junk, v, i):
    near = _near(v)
    for name, *args in _junk_cases(junk, v, near[i % len(near)]):
        new, old = _both(name, *args)
        assert new == old, (name, args)


@pytest.mark.parametrize("i", range(5))
def test_plain_tuple_equal_to_the_vertex_fails_like_reference(i):
    # (2, 1) == Slope(1, 2), so it passes the adjacency check on v and
    # fails only when blocking reads its numerator or denominator
    v = farey.Slope(1, 2)
    w = _near(v)[i]
    for name, *args in _junk_cases((2, 1), v, w) + [
        ("blocking", [(2, 1), (2, 1)], v), ("blocking", [w, (2, 1), w], v),
    ]:
        new, old = _both(name, *args)
        assert new == old, (name, args)
