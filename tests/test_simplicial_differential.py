"""goeritz.simplicial and farey.build against the former simplicial layer
kept in tests/simplicial_reference.py: the same simplices and the same
JSON text from closure, barycentric subdivision and open-star removal,
on random complexes over mixed int and str labels and on truncated
Farey complexes.

Labels such as 10, 9 and "a" do not sort together, so a simplex holding
them is labelled in repr order, where an edge of it may sort the other
way round ({10, 9, "a"} is ("a", 10, 9), its edge {9, 10} is (9, 10)).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplicial_reference as ref
from goeritz import farey
from goeritz.simplicial import Complex, remove_open_stars

MIXED_LABELS = [1, 2, 9, 10, "a", "10"]

families = st.lists(
    st.lists(st.sampled_from(MIXED_LABELS), min_size=1, max_size=3, unique=True),
    max_size=12,
)


def _assert_same(new, old):
    assert new.simplices() == old.simplices()
    assert new.to_json() == old.to_json()


def _assert_same_subdivision(new, old):
    """Closure, subdivision and pared subdivision agree with the reference."""
    _assert_same(new, old)
    new_sd, old_sd = new.barycentric(), old.barycentric()
    _assert_same(new_sd, old_sd)
    _assert_same(
        remove_open_stars(new_sd, new.vertices()),
        ref.remove_open_stars(old_sd, old.vertices()),
    )


@given(families)
@settings(max_examples=300, deadline=None)
def test_random_mixed_label_complexes_match_reference(raw):
    _assert_same_subdivision(Complex(raw), ref.Complex(raw))


@pytest.mark.parametrize("raw", [
    [[10, 9, "a"]],
    [["a", 10, 9], [9, 10, 2]],
    [[10, "10", 9], [1, "a"], [2]],
    [[1, 2, 9], [9, 10]],
])
def test_repr_ordered_triangles_match_reference(raw):
    _assert_same_subdivision(Complex(raw), ref.Complex(raw))


@given(families, st.lists(st.sampled_from(MIXED_LABELS), max_size=6))
@settings(max_examples=200, deadline=None)
def test_open_star_removal_of_any_vertex_set_matches_reference(raw, removed):
    new_sd, old_sd = Complex(raw).barycentric(), ref.Complex(raw).barycentric()
    _assert_same(remove_open_stars(new_sd, removed), ref.remove_open_stars(old_sd, removed))


WINDOWS = [(0, 1), (-2, 3), (1, 1), (0, 0), (-5, -3), (-1, 0), (2, 3), (-3, -2)]


@pytest.mark.parametrize("window", WINDOWS)
def test_farey_build_is_closed_as_built(window):
    for n in [*range(1, 17), 24, 32, 48, 64]:
        built = farey.build(n, window)
        assert Complex(list(built.simplices())) == built, n


@pytest.mark.parametrize("n, window", [
    (n, window) for n in (1, 2, 5, 16) for window in ((0, 1), (-2, 3), (-5, -3), (2, 3))
] + [(64, (0, 1)), (32, (-2, 3)), (24, (-5, -3))])
def test_farey_subdivisions_match_reference(n, window):
    built = farey.build(n, window)
    _assert_same_subdivision(built, ref.Complex(built.simplices()))
