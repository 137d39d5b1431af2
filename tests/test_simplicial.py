"""Dimension <= 2 simplicial complexes: closure, star, flag test,
barycentric subdivision and open-star removal.  Simplices are probed
through the label-level `simplices()`, not the complex's id index."""

import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz import farey
from goeritz.simplicial import Complex, remove_open_stars

TRIANGLE = Complex([("a", "b", "c")])
BOUNDARY = Complex([("a", "b"), ("b", "c"), ("a", "c")])


def test_downward_closure():
    assert frozenset(("a",)) in TRIANGLE.simplices()
    assert frozenset(("a", "b")) in TRIANGLE.simplices()
    assert frozenset(("b", "a", "c")) in TRIANGLE.simplices()
    assert frozenset(("a", "d")) not in TRIANGLE.simplices()
    assert len(TRIANGLE.simplices(0)) == 3
    assert len(TRIANGLE.simplices(1)) == 3
    assert len(TRIANGLE.simplices(2)) == 1


def test_dimension_and_vertices():
    assert TRIANGLE.dim() == 2
    assert BOUNDARY.dim() == 1
    assert Complex([("a",)]).dim() == 0
    assert TRIANGLE.vertices() == {"a", "b", "c"}


def test_rejects_oversized_simplices():
    with pytest.raises(ValueError):
        Complex([(1, 2, 3, 4)])
    with pytest.raises(ValueError):
        Complex([()])


def test_from_maximal_and_maximal_simplices():
    k = Complex([("a", "b", "c"), ("c", "d")])
    assert frozenset(("a", "c")) in k.simplices()
    assert k.maximal_simplices() == [("a", "b", "c"), ("c", "d")]


def _brute_force_maximal(k):
    simplices = k.simplices()
    return sorted(tuple(sorted(s)) for s in simplices if not any(s < t for t in simplices))


@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3), max_size=25))
@settings(max_examples=200)
def test_maximal_simplices_match_a_pair_scan(raw):
    k = Complex(raw)
    assert k.maximal_simplices() == _brute_force_maximal(k)


def test_maximal_simplices_json_of_a_subdivided_slope_complex():
    k = farey.build(16).barycentric()
    expected = {"max_simplices": [[str(v) for v in s] for s in _brute_force_maximal(k)]}
    assert k.to_json() == json.dumps(expected, indent=2, sort_keys=True)


def test_adjacent_includes_equality():
    assert TRIANGLE.adjacent("a", "a")
    assert TRIANGLE.adjacent("a", "b")
    k = Complex([("a", "b"), ("c",)])
    assert not k.adjacent("a", "c")


def test_star_is_full_subcomplex_on_the_closed_neighbourhood():
    k = Complex([("a", "b", "c"), ("c", "d"), ("d", "e")])
    star_c = k.star("c")
    assert star_c.vertices() == {"a", "b", "c", "d"}
    assert frozenset(("a", "b", "c")) in star_c.simplices()
    assert frozenset(("c", "d")) in star_c.simplices()
    assert frozenset(("a", "b")) in star_c.simplices()  # full subcomplex, not just cofaces
    assert frozenset(("d", "e")) not in star_c.simplices()


def test_flag_detection():
    assert TRIANGLE.is_flag()
    assert not BOUNDARY.is_flag()  # empty triangle
    path = Complex([("a", "b"), ("b", "c")])
    assert path.is_flag()


def test_euler_characteristic():
    assert TRIANGLE.euler_characteristic() == 1
    assert BOUNDARY.euler_characteristic() == 0
    two_points = Complex([("a",), ("b",)])
    assert two_points.euler_characteristic() == 2


def test_connectivity_and_acyclicity():
    path = Complex([("a", "b"), ("b", "c")])
    cycle = BOUNDARY
    forest = Complex([("a", "b"), ("c", "d")])
    assert path.is_connected()
    assert not forest.is_connected()
    assert path.is_acyclic_graph()
    assert forest.is_acyclic_graph()
    assert not cycle.is_acyclic_graph()
    with pytest.raises(ValueError):
        TRIANGLE.is_acyclic_graph()


def test_barycentric_subdivision_of_a_triangle():
    sd = TRIANGLE.barycentric()
    assert len(sd.simplices(0)) == 7  # 3 vertices + 3 edges + 1 face
    assert len(sd.simplices(1)) == 12
    assert len(sd.simplices(2)) == 6
    assert sd.euler_characteristic() == TRIANGLE.euler_characteristic()
    assert sd.is_flag()


def test_barycentric_preserves_euler_characteristic():
    rng = random.Random(0)
    labels = list(range(6))
    for _ in range(50):
        simplices = []
        for _ in range(rng.randint(1, 7)):
            size = rng.randint(1, 3)
            simplices.append(tuple(rng.sample(labels, size)))
        k = Complex(simplices)
        assert k.barycentric().euler_characteristic() == k.euler_characteristic()


def test_open_star_removal_gives_three_leaf_star():
    sd = TRIANGLE.barycentric()
    pared = remove_open_stars(sd, TRIANGLE.vertices())
    assert len(pared.vertices()) == 4
    assert len(pared.simplices(1)) == 3
    assert len(pared.simplices(2)) == 0
    center = ("a", "b", "c")
    assert frozenset((center,)) in pared.simplices()
    for leaf in pared.vertices() - {center}:
        assert frozenset((leaf, center)) in pared.simplices()
    assert pared.is_acyclic_graph()
    assert pared.is_connected()


def test_open_star_removal_of_an_edge():
    edge = Complex([("a", "b")])
    pared = remove_open_stars(edge.barycentric(), edge.vertices())
    assert pared.vertices() == {("a", "b")}
    assert pared.dim() == 0


def test_json_roundtrip():
    for k in (TRIANGLE, BOUNDARY, Complex([("a",), ("b", "c")])):
        text = k.to_json()
        back = Complex.from_json(text)
        assert back.to_json() == text
        assert len(back.simplices(0)) == len(k.simplices(0))
        assert len(back.simplices(1)) == len(k.simplices(1))
        assert len(back.simplices(2)) == len(k.simplices(2))


def test_json_rejects_malformed_input():
    with pytest.raises((ValueError, KeyError)):
        Complex.from_json('{"wrong": []}')


@pytest.mark.parametrize("label", ["true", "false", "1.0", "2.5", "null"])
def test_json_labels_are_strings_or_integers(label):
    # true == 1 == 1.0 in Python, so such labels would silently merge
    with pytest.raises(ValueError):
        Complex.from_json(f'{{"max_simplices": [[{label}, 1, 2]]}}')
    k = Complex.from_json('{"max_simplices": [["1", 1, 2], [-3]]}')
    assert len(k.vertices()) == 4



def test_subdivision_keeps_one_gc_tracked_object_per_input_simplex():
    # The subdivision's simplices are int tuples, which the collector stops
    # tracking; what stays tracked is one label tuple per barycenter, plus
    # the table, the simplex set and the complex.  Host-independent, unlike
    # a timing: it counts objects, not pauses.
    complex_ = farey.build(64)
    assert sum(complex_.f_vector()) == 5_043
    gc.collect()
    before = len(gc.get_objects())
    subdivision = complex_.barycentric()
    gc.collect()
    added = len(gc.get_objects()) - before
    assert added <= 5_043 + 16, added
    assert len(subdivision.vertices()) == 5_043
