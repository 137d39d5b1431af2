"""Coset-tree balls, the left action, stabilizers and the quotient."""

import random
import re
import time

import pytest

import tree_reference as ref
from goeritz.amalgam import NormalForm, parse, random_word
from goeritz.tree import (
    BASE_EDGE,
    BASE_PAIR_VERTEX,
    BASE_TRIPLE_VERTEX,
    PAIR,
    TRIPLE,
    TreeBall,
    _end,
    act,
    act_edge,
    ball,
    is_tree,
    quotient,
    rep_word,
    to_dot,
    vertex_label,
)


def edge_endpoints(rep):
    """The pair vertex and triple vertex joined by the edge rep."""
    return _end(PAIR, rep), _end(TRIPLE, rep)


def test_base_objects():
    assert BASE_PAIR_VERTEX == (PAIR, ())
    assert BASE_TRIPLE_VERTEX == (TRIPLE, ())
    assert BASE_EDGE == ()
    pair_end, triple_end = edge_endpoints(BASE_EDGE)
    assert pair_end == BASE_PAIR_VERTEX
    assert triple_end == BASE_TRIPLE_VERTEX


def test_small_ball_counts():
    b = ball(1, 2)
    assert len(b.vertices) == 8
    assert len(b.edges) == 7
    kinds = [kind for kind, _ in b.vertices]
    # base edge, 2 new triple vertices off the pair side (powers +-1, +-2
    # give 4), 2 new pair vertices off the triple side
    assert kinds.count(PAIR) == 3
    assert kinds.count(TRIPLE) == 5


def test_balls_are_trees():
    for radius in range(1, 5):
        for max_power in range(1, 4):
            assert is_tree(ball(radius, max_power))


def test_ball_grows_with_parameters():
    small = ball(2, 1)
    bigger_radius = ball(3, 1)
    bigger_power = ball(2, 2)
    assert frozenset(small.vertices) < frozenset(bigger_radius.vertices)
    assert frozenset(small.vertices) < frozenset(bigger_power.vertices)


def test_ball_argument_validation():
    with pytest.raises(ValueError):
        ball(-1, 2)
    with pytest.raises(ValueError):
        ball(2, 0)
    with pytest.raises(ValueError, match="^ball exceeded vertex cap 1000$"):
        ball(12, 3, cap=1000)


def test_huge_max_power_overruns_the_vertex_cap_quickly():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^ball exceeded vertex cap 1000$"):
        ball(1, 10**12, cap=1000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_ball_matches_the_reference_in_order():
    sizes = [(r, p) for r in range(6) for p in range(1, 4)] + [(6, 3)]
    for radius, max_power in sizes:
        got, want = ball(radius, max_power), ref.ball(radius, max_power)
        assert (got.radius, got.max_power) == (want.radius, want.max_power)
        assert got.vertices == [(v.kind, v.rep) for v in want.vertices]
        assert got.edges == [e.rep for e in want.edges]


def test_incident_far_endpoints_agree_with_edge_endpoints():
    vertices = ball(4, 3).vertices
    for max_power in range(1, 4):
        for v in vertices:
            kind, rep = v
            other = TRIPLE if kind == PAIR else PAIR
            reps = list(ref._incident(kind, rep, max_power))
            assert len(set(reps)) == (2 * max_power + 1 if kind == PAIR else 3)
            for e in reps:
                assert set(edge_endpoints(e)) == {v, _end(other, e)}


def test_is_tree_rejects_an_edge_leaving_the_ball():
    b = TreeBall(1, 1, [BASE_PAIR_VERTEX, BASE_TRIPLE_VERTEX], [(("P", 1),)])
    assert not is_tree(b)


def test_edges_connect_pair_to_triple():
    b = ball(3, 2)
    vertices = frozenset(b.vertices)
    for edge in b.edges:
        pair_end, triple_end = edge_endpoints(edge)
        assert pair_end[0] == PAIR
        assert triple_end[0] == TRIPLE
        assert pair_end in vertices
        assert triple_end in vertices


def test_identity_acts_trivially():
    b = ball(2, 2)
    for v in b.vertices:
        assert act("", v) == v


def test_action_is_homomorphic():
    rng = random.Random(0)
    b = ball(2, 2)
    for _ in range(200):
        u = random_word(rng, rng.randint(0, 8))
        w = random_word(rng, rng.randint(0, 8))
        v = rng.choice(b.vertices)
        assert act(u + w, v) == act(u, act(w, v))


def test_action_preserves_adjacency():
    rng = random.Random(1)
    b = ball(2, 2)
    for _ in range(100):
        u = random_word(rng, rng.randint(0, 6))
        edge = rng.choice(b.edges)
        pair_end, triple_end = edge_endpoints(edge)
        moved = act_edge(u, edge)
        assert edge_endpoints(moved) == (act(u, pair_end), act(u, triple_end))


def test_generator_stabilizers():
    words = ["b", "B", "g", "d", "D", parse("t"), parse("a"), "bd", ""]
    fixing_pair = [w for w in words if act(w, BASE_PAIR_VERTEX) == BASE_PAIR_VERTEX]
    fixing_triple = [w for w in words if act(w, BASE_TRIPLE_VERTEX) == BASE_TRIPLE_VERTEX]
    assert "b" in fixing_pair and "g" in fixing_pair and parse("t") in fixing_pair
    assert "d" not in fixing_pair and "bd" not in fixing_pair
    assert "d" in fixing_triple and "g" in fixing_triple
    assert "b" not in fixing_triple
    assert "" in fixing_pair and "" in fixing_triple


def test_rep_word_recovers_vertex():
    b = ball(3, 2)
    bases = {PAIR: BASE_PAIR_VERTEX, TRIPLE: BASE_TRIPLE_VERTEX}
    for kind, rep in b.vertices:
        assert act(rep_word(rep), bases[kind]) == (kind, rep)


def test_canonical_rep_rejects_own_side_trailing_syllable():
    with pytest.raises(ValueError, match="^representative not canonical for this kind$"):
        act("b", (PAIR, (("P", 1),)))
    with pytest.raises(ValueError, match="^representative not canonical for this kind$"):
        act("b", (TRIPLE, (("Q", 1),)))
    assert act("", (PAIR, (("Q", 1),))) == (PAIR, (("Q", 1),))  # ends on the other side
    with pytest.raises(ValueError, match="^unknown vertex kind 'edge'$"):
        act("b", ("edge", ()))
    with pytest.raises(ValueError, match="^pair syllable with zero power$"):
        act("b", (TRIPLE, (("P", 0),)))
    with pytest.raises(ValueError, match="^syllables do not alternate"):
        act_edge("b", (("Q", 1), ("Q", 2)))


# each was accepted before powers had to be ints: ("P", 1.5) gave the
# vertex triple[b^2.5], ("P", "x") a TypeError from inside the merge
@pytest.mark.parametrize("power, shown", [(1.5, "1.5 of type float"), ("x", "'x' of type str"),
                                          (True, "True of type bool"), (1.0, "1.0 of type float")])
def test_act_rejects_a_power_that_is_not_an_int(power, shown):
    message = f"^syllable power must be an int, got {shown}$"
    with pytest.raises(ValueError, match=message):
        act("b", (TRIPLE, (("P", power),)))
    with pytest.raises(ValueError, match=message):
        act("b", (PAIR, (("Q", power),)))
    with pytest.raises(ValueError, match=message):
        act_edge("b", (("Q", 1), ("P", power)))


# a list syllable gave the unhashable vertex ('pair', (('P', 1), ['Q', 1])),
# and a bare pair or a 3-tuple failed to unpack with no word of the syllable
@pytest.mark.parametrize("rep, shown", [([["Q", 1]], "['Q', 1]"), (("Q", 1), "'Q'"),
                                        ((("Q", 1, 2),), "('Q', 1, 2)")])
def test_act_rejects_a_syllable_that_is_not_a_pair_tuple(rep, shown):
    message = rf"^syllable must be a \(side, power\) tuple, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        act("b", (PAIR, rep))
    with pytest.raises(ValueError, match=message):
        act("b", (TRIPLE, rep))
    with pytest.raises(ValueError, match=message):
        act_edge("b", rep)


# "x" failed with a bare "not enough values to unpack (expected 2, got 1)"
# and 5 with "cannot unpack non-iterable int object"
@pytest.mark.parametrize("vertex, shown", [("x", "'x'"), (5, "5"), ((PAIR, (), ()), "('pair', (), ())")])
def test_act_names_a_vertex_that_is_not_a_pair(vertex, shown):
    with pytest.raises(ValueError, match=rf"^vertex must be a \(kind, rep\) pair, got {re.escape(shown)}$"):
        act("b", vertex)
    assert act("b", [PAIR, ()]) == BASE_PAIR_VERTEX  # a list pair still unpacks


# 5 failed with the bare "'int' object is not iterable"
@pytest.mark.parametrize("rep, type_name", [(5, "int"), (None, "NoneType")])
def test_act_names_syllables_that_are_not_a_sequence(rep, type_name):
    message = rf"^syllables must be a sequence of \(side, power\) tuples, not {type_name}$"
    with pytest.raises(TypeError, match=message):
        act("b", (PAIR, rep))
    with pytest.raises(TypeError, match=message):
        act_edge("b", rep)
    with pytest.raises(TypeError, match=message):
        NormalForm(rep)


def test_vertex_label():
    assert vertex_label((PAIR, ())) == "pair[1]"
    assert vertex_label((PAIR, (("P", 1), ("Q", 2)))) == "pair[b^1 d^2]"
    for v in ball(2, 2).vertices:
        assert vertex_label(v) == str(ref.CosetVertex(*v))


def test_quotient_is_single_edge():
    report = quotient(ball(3, 2), witness_samples=20)
    assert report.vertices == (PAIR, TRIPLE)
    assert report.edges == ((PAIR, TRIPLE),)
    assert len(report.witnesses) == 20
    assert all(good for _, _, good in report.witnesses)
    assert report.ok


def test_quotient_with_no_samples_has_no_witnesses():
    report = quotient(ball(2, 2), witness_samples=0)
    assert report.witnesses == []
    assert report.ok


def test_quotient_rejects_a_negative_sample_count():
    with pytest.raises(ValueError, match="^witness_samples must be >= 0$"):
        quotient(ball(2, 2), witness_samples=-3)


def test_to_dot_mentions_every_vertex_and_edge():
    b = ball(1, 2)
    dot = to_dot(b)
    assert dot.count("shape=circle") == 3
    assert dot.count("shape=box") == 5
    assert dot.count(" -- ") == 7
