"""goeritz.simplicial and farey.build against the former simplicial layer
kept in tests/simplicial_reference.py: the same simplices and the same
JSON text from closure, barycentric subdivision and open-star removal,
on random complexes over mixed int and str labels and on truncated
Farey complexes; every other query the package keeps (adjacent, star,
the structure tests) on such complexes and on their subdivisions; and
farey._check_axioms against its former label reading.

Labels such as 10, 9 and "a" do not sort together, so a simplex holding
them is labelled in repr order, where an edge of it may sort the other
way round ({10, 9, "a"} is ("a", 10, 9), its edge {9, 10} is (9, 10)).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplicial_reference as ref
from farey_reference import WitnessNotFound
from goeritz import farey
from goeritz.contract import check_blocking_answer
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


# -- every query against the frozenset-of-labels layer ---------------------


def _outcome(call):
    """The value of a call, or the type and text of the error it raised."""
    try:
        result = call()
    except ValueError as err:
        return ValueError, str(err)
    if isinstance(result, (Complex, ref.Complex)):
        # a star keeps its parent's label table, so the structure tests
        # also run on tables holding non-vertices
        return (result.simplices(), result.to_json(), result.is_connected(),
                _outcome(result.is_acyclic_graph))
    return result


def _assert_same_queries(new, old, data):
    """Every query of the former layer gives the same answer on `new`, for
    labels drawn from the complex's vertices and a few that are absent."""
    assert new.dim() == old.dim()
    assert new.euler_characteristic() == old.euler_characteristic()
    assert new.is_flag() == old.is_flag()
    assert new.is_connected() == old.is_connected()
    assert _outcome(new.is_acyclic_graph) == _outcome(old.is_acyclic_graph)
    assert new.vertices() == old.vertices()
    assert new.maximal_simplices() == old.maximal_simplices()
    labels = sorted(old.vertices(), key=repr) + ["absent", (1,)]
    pick = st.sampled_from(labels)
    for _ in range(3):
        v, w = data.draw(pick), data.draw(pick)
        assert _outcome(lambda: new.adjacent(v, w)) == _outcome(lambda: old.adjacent(v, w))
        assert _outcome(lambda: new.star(v)) == _outcome(lambda: old.star(v))


@given(families, st.data())
@settings(max_examples=200, deadline=None)
def test_every_query_matches_reference_on_complex_and_subdivision(raw, data):
    new, old = Complex(raw), ref.Complex(raw)
    _assert_same_queries(new, old, data)
    _assert_same_queries(new.barycentric(), old.barycentric(), data)


@pytest.mark.parametrize("raw", [
    [],
    [[1]],
    [[1], [2], ["a"]],
    [[1, 2], [9]],
    [[1, 2], [2, 9], [9, 1]],
    [[1, 2, 9]],
    [[1, 2], [10, "a"], [9]],
    [[1, 2], [2, 9], [9, 10], [10, "a"], ["10"]],
    [[1, 2, 9], [9, 10], [10, "a"], ["a", 1]],
])
def test_connectivity_matches_reference_on_subcomplexes(raw):
    """is_connected and is_acyclic_graph on the empty complex, isolated
    vertices, cycles and trees, and on every star and pared subdivision
    of them, whose label tables hold non-vertices; the component counts
    also match the former union-find count."""
    new, old = Complex(raw), ref.Complex(raw)
    new_sd, old_sd = new.barycentric(), old.barycentric()
    pairs = [(new, old), (new_sd, old_sd),
             (remove_open_stars(new_sd, new.vertices()),
              ref.remove_open_stars(old_sd, old.vertices()))]
    for v in sorted(old.vertices(), key=repr):
        pairs.append((new.star(v), old.star(v)))
    for a, b in pairs:
        assert a.simplices() == b.simplices()
        assert a.is_connected() == b.is_connected()
        assert a._components() == ref.components_union_find(a) == len(b._components())
        assert _outcome(a.is_acyclic_graph) == _outcome(b.is_acyclic_graph)
    if raw:
        assert any(len(a._labels) > len(a.vertices()) for a, _ in pairs)


def _former_check_axioms(complex_, n, samples, seed):
    """farey._check_axioms as it was when it read label frozensets; only the
    module prefixes and one line break are new."""
    report = farey.AxiomReport(n, samples)
    verts = sorted(complex_.vertices())
    for u in verts:
        if farey.remoteness(u) == 0 and not farey.adjacent(u, farey.BASE):
            report.violations.append(f"remoteness 0 at {u} outside the base star")
    positive = [u for u in verts if farey.remoteness(u) > 0]
    near = {u: [u] for u in verts}
    for u, w in complex_.simplices(1):
        near[u].append(w)
        near[w].append(u)
    stars = {u: sorted(near[u]) for u in positive}
    rng = random.Random(seed)
    for _ in range(samples):
        v = rng.choice(positive)
        xs = tuple(rng.choice(stars[v]) for _ in range(rng.randint(0, 3)))
        try:
            value, witness = farey.blocking(xs, v)
        except WitnessNotFound as err:
            report.violations.append(str(err))
            continue
        problems = check_blocking_answer(
            farey.adjacent, farey.remoteness, xs, v, value, witness)
        report.violations.extend(problems)
        if value > 0 and not problems:
            vp, wp = witness
            ys = list(xs)
            ys.remove(vp)
            ys.append(wp)
            new_value, _ = farey.blocking(tuple(ys), v)
            if new_value >= value:
                report.violations.append(
                    f"blocking did not decrease: {value} -> {new_value} at {v}"
                )
    return report


@pytest.mark.parametrize("window", WINDOWS)
def test_check_axioms_reports_match_the_label_reading(window):
    for n in range(1, 33):
        built = farey.build(n, window)
        old = ref.Complex(built.simplices())
        for seed in (n, n + 100):
            assert farey._check_axioms(built, n, 60, seed, window) == _former_check_axioms(
                old, n, 60, seed), (n, seed)
