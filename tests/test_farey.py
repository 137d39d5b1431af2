"""Slopes, mediant parents, the truncated complex and its oracles."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farey_reference import det_intersection
from goeritz import cli, contract, farey
from goeritz.farey import (
    BASE,
    INFINITY,
    Slope,
    adjacent,
    blocking,
    build,
    mediant,
    neighbours,
    parents,
    parse_slope,
    random_based_loop,
    remoteness,
    slope,
    verify_axioms,
)
from goeritz.simplicial import remove_open_stars


def test_slope_normalization():
    assert slope(2, 4) == Slope(1, 2)
    assert slope(-2, -4) == Slope(1, 2)
    assert slope(2, -4) == Slope(-1, 2)
    assert slope(5, 0) == INFINITY
    assert slope(-5, 0) == INFINITY


def test_slope_validation():
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(1, -2)
    with pytest.raises(ValueError):
        Slope(3, 0)
    with pytest.raises(ValueError):
        slope(0, 0)


# Slope(True, 1) printed as "True/1", which parse_slope cannot read back,
# and Slope(1.0, 0) was accepted as infinity; slope(1, 0.0) was infinity
# too, slope(True, 2) was Slope(p=1, q=2), and slope(1.5, 2) failed
# inside gcd naming no argument
@pytest.mark.parametrize("p, q, message", [
    (True, 1, "slope p must be an int, not bool"),
    (1, True, "slope q must be an int, not bool"),
    (1.0, 0, "slope p must be an int, not float"),
    (1, "2", "slope q must be an int, not str"),
    (1, 0.0, "slope q must be an int, not float"),
    (True, 2, "slope p must be an int, not bool"),
    (1.5, 2, "slope p must be an int, not float"),
])
def test_slope_refuses_a_value_that_is_not_an_int(p, q, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        Slope(p, q)
    with pytest.raises(TypeError, match=f"^{message}$"):
        slope(p, q)


def test_parse_and_str():
    assert parse_slope("inf") == INFINITY
    assert parse_slope("3/5") == Slope(3, 5)
    assert parse_slope("-6/4") == Slope(-3, 2)
    assert parse_slope("7") == Slope(7, 1)
    assert str(INFINITY) == "inf"
    assert str(Slope(-3, 2)) == "-3/2"
    for text in ("inf", "0/1", "-17/5"):
        assert str(parse_slope(text)) == text


@pytest.mark.parametrize("value, type_name", [(5, "int"), (None, "NoneType"), (["inf"], "list")])
def test_parse_slope_raises_type_error_for_a_non_string(value, type_name):
    with pytest.raises(TypeError, match=f"^slope must be a string, not {type_name}$"):
        parse_slope(value)


def test_parse_slope_raises_value_error_for_bad_text():
    for text in ("", "x", "1/0/2", "0/0", "inf/2"):
        with pytest.raises(ValueError):
            parse_slope(text)


def test_slope_order_is_denominator_then_numerator():
    slopes = list(build(24, (-3, 3)).vertices())
    assert sorted(slopes) == sorted(slopes, key=lambda s: (s.q, s.p))
    rng = random.Random(0)
    for u, w in (rng.sample(slopes, 2) for _ in range(2000)):
        key_u, key_w = (u.q, u.p), (w.q, w.p)
        assert (u < w, u <= w, u > w, u >= w) == (
            key_u < key_w, key_u <= key_w, key_u > key_w, key_u >= key_w
        )


def test_slope_equality_and_hash_follow_p_and_q():
    for p, q in ((1, 0), (0, 1), (-3, 2), (5, 7)):
        u, w = Slope(p, q), slope(p, q)
        assert u == w and not u != w and hash(u) == hash(w)
        assert Slope(p=p, q=q) == u
        assert len({u, w, Slope(p, q)}) == 1
    assert Slope(1, 2) != Slope(-1, 2) and Slope(1, 2) != Slope(1, 3)


def test_slope_repr_and_str():
    assert repr(Slope(3, 7)) == "Slope(p=3, q=7)"
    assert repr(INFINITY) == "Slope(p=1, q=0)"
    assert repr([Slope(-2, 5)]) == "[Slope(p=-2, q=5)]"
    assert (str(Slope(3, 7)), str(Slope(-2, 1)), str(INFINITY)) == ("3/7", "-2/1", "inf")
    assert f"{Slope(3, 7)}" == "3/7"


def test_slope_pickle_and_copy_round_trip():
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for u in (INFINITY, Slope(0, 1), Slope(-17, 5)):
        pickled = [pickle.loads(pickle.dumps(u, proto)) for proto in protocols]
        for back in pickled + [copy.deepcopy(u), copy.copy(u)]:
            assert type(back) is Slope
            assert back == u and (back.p, back.q) == (u.p, u.q)
            assert repr(back) == repr(u)
    with pytest.raises(AttributeError):
        Slope(1, 2).p = 3


def test_a_slope_never_unpacks_as_a_pair():
    # a b > 0 blocking answer whose witness is one slope is malformed
    with pytest.raises(TypeError):
        q, p = Slope(3, 7)
    problems = contract.check_blocking_answer(
        adjacent, remoteness, (Slope(0, 1),), Slope(1, 2), 3, Slope(0, 1)
    )
    assert problems == ["b>0 witness Slope(p=0, q=1) is not a pair (v', w')"]


def test_adjacency():
    assert adjacent(Slope(0, 1), Slope(1, 1))
    assert adjacent(Slope(1, 2), Slope(1, 3))
    assert adjacent(INFINITY, Slope(5, 1))
    assert not adjacent(INFINITY, Slope(1, 2))
    assert not adjacent(Slope(0, 1), Slope(2, 3))
    assert adjacent(Slope(1, 2), Slope(1, 2))  # equality counts
    assert det_intersection(Slope(1, 2), Slope(2, 3)) == 1
    assert det_intersection(Slope(0, 1), Slope(2, 3)) == 2


def test_remoteness_vanishes_only_at_the_base():
    assert remoteness(BASE) == 0
    assert remoteness(Slope(3, 7)) == 7
    for v in build(6).vertices():
        if remoteness(v) == 0:
            assert v == BASE


def test_parent_examples():
    assert parents(Slope(1, 2)) == (Slope(0, 1), Slope(1, 1))
    assert parents(Slope(2, 5)) == (Slope(1, 3), Slope(1, 2))
    assert parents(Slope(0, 1)) == (INFINITY, Slope(-1, 1))
    assert parents(Slope(3, 1)) == (INFINITY, Slope(2, 1))
    with pytest.raises(ValueError):
        parents(INFINITY)


@given(st.integers(-60, 60), st.integers(1, 60))
@settings(max_examples=300)
def test_parents_are_the_adjacent_mediant_pair(p, q):
    if gcd(abs(p), q) != 1:
        return
    v = Slope(p, q)
    a, b = parents(v)
    assert mediant(a, b) == v
    assert adjacent(a, b) and adjacent(a, v) and adjacent(b, v)
    assert remoteness(a) < q or (q == 1 and a == INFINITY)
    if q > 1:
        assert remoteness(a) < q and remoteness(b) < q


def test_parents_are_the_only_closer_neighbours():
    rng = random.Random(0)
    for _ in range(50):
        q = rng.randint(2, 12)
        p = rng.randint(-12, 12)
        if gcd(abs(p), q) != 1:
            continue
        v = Slope(p, q)
        closer = {
            u
            for u in neighbours(v, 15) + [INFINITY]
            if adjacent(u, v) and u != v and remoteness(u) < remoteness(v)
        }
        assert closer == set(parents(v))


def test_neighbours_chain():
    chain = neighbours(Slope(1, 2), 3)
    assert all(adjacent(u, Slope(1, 2)) for u in chain)
    assert Slope(0, 1) in chain and Slope(1, 1) in chain
    assert neighbours(INFINITY, 2) == [Slope(n, 1) for n in range(-2, 3)]


def _neighbours_reference(v, bound):
    # the chain with a guard against 0/0 and a set against repeats, which
    # neighbours() leaves out because |det(parent, v)| = 1 rules both out
    if v == INFINITY:
        return [Slope(n, 1) for n in range(-bound, bound + 1)]
    a = parents(v)[0]
    out = []
    for k in range(-bound, bound + 1):
        p, q = a.p + k * v.p, a.q + k * v.q
        if (p, q) != (0, 0):
            out.append(slope(p, q))
    return sorted(set(out))


def test_neighbours_are_distinct_sorted_and_adjacent():
    for v in [INFINITY, *build(24).vertices()]:
        for bound in range(7):
            chain = neighbours(v, bound)
            assert chain == sorted(chain)
            assert len(set(chain)) == len(chain) == 2 * bound + 1, (v, bound)
            assert all(adjacent(u, v) for u in chain), (v, bound)
            assert chain == _neighbours_reference(v, bound), (v, bound)


def test_blocking_with_a_single_shallow_member():
    value, witness = blocking((Slope(0, 1),), Slope(1, 2))
    assert value == 0
    assert witness in parents(Slope(1, 2))


def test_blocking_with_both_parents_is_still_unblocked():
    # both parents of 1/2 are adjacent to each other, so either works
    value, witness = blocking((Slope(1, 1), Slope(0, 1)), Slope(1, 2))
    assert value == 0
    assert witness in parents(Slope(1, 2))


def test_blocking_with_deep_members_blocks():
    value, witness = blocking((Slope(1, 3), Slope(2, 3)), Slope(1, 2))
    assert value == 6
    vp, wp = witness
    assert vp in (Slope(1, 3), Slope(2, 3))
    assert remoteness(wp) < remoteness(vp)
    assert adjacent(wp, Slope(1, 2))


def test_blocking_at_an_integer_slope():
    # no parent of 2/1 with smaller denominator reaches 5/2, so the
    # replacement witness is v itself (a parent of the deep member)
    value, witness = blocking((Slope(5, 2),), Slope(2, 1))
    assert value == 2
    vp, wp = witness
    assert vp == Slope(5, 2)
    assert wp == Slope(2, 1)


def test_blocking_empty_multiset():
    value, witness = blocking((), Slope(1, 2))
    assert value == 0
    assert witness in parents(Slope(1, 2))


def test_blocking_rejects_non_adjacent_pairs():
    with pytest.raises(ValueError):
        blocking((Slope(1, 3),), Slope(1, 1))
    with pytest.raises(ValueError):
        blocking((), INFINITY)


def test_blocking_never_fails_on_small_exhaustive_scan():
    verts = sorted(build(6).vertices())
    for v in verts:
        if remoteness(v) == 0:
            continue
        star = [u for u in verts if adjacent(u, v)]
        for x in star:
            for y in star:
                value, witness = blocking((x, y), v)
                if value == 0:
                    assert remoteness(witness) < remoteness(v)
                    assert adjacent(witness, x) and adjacent(witness, y)
                else:
                    vp, wp = witness
                    assert vp in (x, y)
                    assert remoteness(wp) < remoteness(vp)
                    assert adjacent(wp, v)


def test_contract_loop_on_the_fixture_only_relabels():
    # contract_loop asks blocking only at a position of maximal
    # remoteness, so no member is deeper than v and every answer has
    # b = 0 (the goeritz.farey module docstring); the loops concatenate
    # seeded 50-position random_based_loop segments, as the benchmark's do
    asked = []

    def spy(xs, v):
        assert all(remoteness(u) <= remoteness(v) for u in xs), (xs, v)
        asked.append(v)
        return blocking(xs, v)

    rng = random.Random(0)
    for _ in range(200):
        positions = rng.randint(20, 400)
        segment = min(positions, 50)
        loop = []
        for _ in range(positions // segment):
            loop += random_based_loop(rng.randrange(1 << 30), 50, segment - 3, segment - 3)
        cert = contract.contract_loop(adjacent, remoteness, spy, loop, BASE)
        assert {type(move) for move in cert.moves} == {contract.Relabel}
        assert contract.validate(adjacent, cert, loop, BASE)
    assert len(asked) > 10_000


def test_build_small_complexes():
    k1 = build(1)
    assert sorted(str(v) for v in k1.vertices()) == ["0/1", "1/1", "inf"]
    assert len(k1.simplices(1)) == 3
    assert len(k1.simplices(2)) == 1
    k2 = build(2)
    assert len(k2.vertices()) == 4
    assert len(k2.simplices(1)) == 5
    assert len(k2.simplices(2)) == 2


def test_build_respects_the_window():
    k = build(3, window=(-1, 1))
    values = {Fraction(v.p, v.q) for v in k.vertices() if v != INFINITY}
    assert min(values) == -1 and max(values) == 1
    assert Slope(-1, 2) in k.vertices()


def test_build_is_flag_and_connected():
    for n in (1, 2, 4, 8, 12):
        k = build(n)
        assert k.is_flag()
        assert k.is_connected()


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        build(0)


def test_build_rejects_a_reversed_window():
    with pytest.raises(ValueError):
        build(3, window=(1, 0))
    assert len(build(3, window=(1, 1)).vertices()) == 2  # 1/1 and infinity


def test_verify_axioms_is_clean():
    for seed in (0, 1, 2):
        report = verify_axioms(8, 200, seed=seed)
        assert report.ok, report.violations[:5]
    assert verify_axioms(10, 500, seed=0).ok


def test_verify_axioms_samples_inside_the_window(monkeypatch, capsys):
    sampled = []

    def spy(xs, v):
        sampled.append(v)
        return blocking(xs, v)

    monkeypatch.setattr(farey, "blocking", spy)
    assert verify_axioms(16, 300, 7, (-3, -2)).ok
    assert sampled and all(-3 <= Fraction(v.p, v.q) <= -2 for v in sampled)
    sampled.clear()
    argv = ["farey", "--n", "16", "--window", "-3", "-2", "--verify-axioms"]
    assert cli.main(argv) == 0
    assert "axioms: 500 samples, 0 violations" in capsys.readouterr().out
    assert sampled and all(-3 <= Fraction(v.p, v.q) <= -2 for v in sampled)
    with pytest.raises(ValueError):
        verify_axioms(6, 10, 0, (1, 0))


def test_verify_axioms_on_a_window_without_finite_slopes():
    window = (Fraction(1, 5), Fraction(3, 10))
    assert [str(v) for v in build(3, window).vertices()] == ["inf"]
    with pytest.raises(ValueError) as err:
        verify_axioms(3, 10, window=window)
    assert str(err.value) == "build(3, window=(1/5, 3/10)) has no finite slope to sample"
    report = verify_axioms(3, 0, window=window)
    assert report.ok and report.samples == 0
    assert verify_axioms(10, 10, window=window).ok  # 1/4 and 2/7 come in at n = 4


def test_verify_axioms_rejects_a_negative_sample_count():
    # a report of -1 samples would claim checks that never ran
    with pytest.raises(ValueError, match="^samples must be >= 0$"):
        verify_axioms(3, -1, 0)
    with pytest.raises(ValueError, match="^samples must be >= 0$"):
        farey._check_axioms(build(3), 3, -1, 0, (0, 1))  # the CLI's entry
    assert verify_axioms(3, 0, 0).samples == 0


def test_verify_axioms_refuses_a_negative_sample_count_before_building(monkeypatch):
    def build_fails(n, window=(0, 1)):
        raise AssertionError("built a complex for a refused sample count")

    monkeypatch.setattr(farey, "build", build_fails)
    with pytest.raises(ValueError, match="^samples must be >= 0$"):
        verify_axioms(128, -1)


def test_verify_axioms_caps_the_sample_count(monkeypatch):
    # about 5 us a sample, so 10**9 samples ran for over an hour; the
    # edge is pinned on a lowered cap, which both entries read at call time
    assert farey.SAMPLE_CAP == 1_000_000
    complex_ = build(3)
    with monkeypatch.context() as patch:
        patch.setattr(farey, "build", lambda n, window=(0, 1): pytest.fail("built a complex"))
        for samples in (farey.SAMPLE_CAP + 1, 10**9):
            with pytest.raises(ValueError, match="^samples must be at most 1000000$"):
                verify_axioms(128, samples)
            with pytest.raises(ValueError, match="^samples must be at most 1000000$"):
                farey._check_axioms(complex_, 3, samples, 0, (0, 1))  # the CLI's entry
    monkeypatch.setattr(farey, "SAMPLE_CAP", 40)
    assert verify_axioms(6, 40).samples == 40
    assert farey._check_axioms(build(6), 6, 40, 0, (0, 1)).ok
    with pytest.raises(ValueError, match="^samples must be at most 40$"):
        verify_axioms(6, 41)
    with pytest.raises(ValueError, match="^samples must be at most 40$"):
        farey._check_axioms(build(6), 6, 41, 0, (0, 1))


def test_cli_verify_axioms_builds_the_complex_once(monkeypatch, capsys):
    calls = []

    def spy(n, window=(0, 1)):
        calls.append((n, window))
        return build(n, window)

    monkeypatch.setattr(farey, "build", spy)
    assert cli.main(["farey", "--n", "16", "--window", "-3", "-2", "--verify-axioms"]) == 0
    assert "axioms: 500 samples, 0 violations" in capsys.readouterr().out
    assert calls == [(16, (-3, -2))]


def test_random_based_loop_shape():
    for seed in range(30):
        loop = random_based_loop(seed, max_denominator=40)
        assert loop[0] == BASE
        assert all(remoteness(v) <= 40 for v in loop)
        for u, w in zip(loop, loop[1:]):
            assert adjacent(u, w)
        assert adjacent(loop[-1], loop[0])


def test_random_based_loop_is_deterministic():
    assert random_based_loop(7) == random_based_loop(7)
    assert random_based_loop(7) != random_based_loop(8)


@pytest.mark.parametrize("args, name", [
    ((0, 0), "max_denominator"),
    ((0, 50, 5, 4), "min_steps"),
    ((0, 50, -2, -1), "min_steps"),
])
def test_random_based_loop_rejects_bad_counts_before_drawing(monkeypatch, args, name):
    monkeypatch.setattr(farey, "random", None)  # any draw raises AttributeError
    with pytest.raises(ValueError, match=name):
        random_based_loop(*args)


def _degrees_if_tree(graph):
    """Vertex degrees of a 1-dimensional complex, after checking that it
    is connected and has one edge fewer than vertices."""
    assert graph.dim() == 1
    vertices = {v for (v,) in graph.simplices(0)}
    edges = [tuple(e) for e in graph.simplices(1)]
    assert len(edges) == len(vertices) - 1
    near = {v: [] for v in vertices}
    for u, w in edges:
        near[u].append(w)
        near[w].append(u)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for w in near[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == vertices
    return {v: len(ws) for v, ws in near.items()}


@pytest.mark.parametrize("window", [(0, 1), (-2, 3), (-5, -3)])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_pared_subdivision_is_a_tree(n, window):
    # the paper's step on the Farey analogue: subdivide, then remove the
    # open stars of the original vertices
    complex_ = build(n, window)
    pared = remove_open_stars(complex_.barycentric(), complex_.vertices())
    degrees = _degrees_if_tree(pared)
    for label, degree in degrees.items():
        assert len(label) in (2, 3)
        assert degree in ((3,) if len(label) == 3 else (1, 2)), (label, degree)
    if (n, window) == (64, (0, 1)):
        assert len(degrees) == 3781
        assert sorted(Counter(degrees.values()).items()) == [(1, 1262), (2, 1259), (3, 1260)]
