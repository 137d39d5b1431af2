"""goeritz.tree against the former coset-tree code in tests/tree_reference.py:
the same is_tree verdicts on balls and on broken balls, byte-identical DOT
text, the same vertex-cap overruns, and no syllable check in ball, is_tree
or to_dot.  Four generations of the former code are compared: the checked
vertex objects, the plain-key loops (ball_by_keys, is_tree_by_keys) that
is_tree's union-find replaced, the hash-once ball loop (ball_hash_once)
that ball's construction without seen sets replaced, and the is_tree with
its own union-find (is_tree_union_find) that the shared one replaced."""

import random

import pytest

import tree_reference as ref
from goeritz import amalgam
from goeritz.tree import PAIR, TRIPLE, TreeBall, ball, is_tree, to_dot

CRITERION_3_SIZES = [(r, p) for r in range(1, 7) for p in range(1, 4)]
# the balls the short_words workload of perfbench/workloads.py builds
# (its BALL_LADDER), and the next size up at its larger max_power
WORKLOAD_BALLS = [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)]


def _mutants(b: TreeBall, rng: random.Random):
    """(name, ball) pairs: the ball itself and copies broken in one way."""
    vs, es = b.vertices, b.edges
    i, j = rng.randrange(len(vs)), rng.randrange(len(es))
    leaving = next(rep for kind, rep in reversed(vs) if kind == PAIR)
    outside = leaving + (("P", b.max_power + 1),)

    def make(vertices, edges):
        return TreeBall(b.radius, b.max_power, vertices, edges)

    yield "as built", b
    yield "drop an edge", make(vs, es[:j] + es[j + 1:])
    yield "drop a vertex", make(vs[:i] + vs[i + 1:], es)
    yield "drop the first vertex", make(vs[1:], es)
    yield "drop the last vertex and edge", make(vs[:-1], es[:-1])
    yield "drop a vertex and an edge", make(vs[:i] + vs[i + 1:], es[:j] + es[j + 1:])
    yield "duplicate a vertex", make(vs + [vs[i]], es)
    yield "duplicate an edge", make(vs, es + [es[j]])
    yield "duplicate a vertex and an edge", make(vs + [vs[i]], es + [es[j]])
    yield "duplicate a vertex, drop an edge", make(vs + [vs[i]], es[:j] + es[j + 1:])
    if len(es) > 1:  # |V| - 1 edges, one of them twice: a cycle
        k = (j + 1) % len(es)
        yield "drop an edge, duplicate another", make(vs, es[:j] + es[j + 1:] + [es[k]])
    yield "swap in an edge leaving the ball", make(vs, es[:j] + [outside] + es[j + 1:])
    yield "add an edge leaving the ball", make(vs, es + [outside])
    shuffled_vs, shuffled_es = vs[:], es[:]
    rng.shuffle(shuffled_vs)
    rng.shuffle(shuffled_es)
    yield "permute both lists", make(shuffled_vs, shuffled_es)
    yield "permute and drop an edge", make(shuffled_vs, shuffled_es[1:])
    yield "an empty ball", make([], [])
    yield "a one-vertex ball", make([vs[i]], [])


def _as_reference(b: TreeBall) -> TreeBall:
    """The same ball with the reference's checked vertex and edge objects."""
    return TreeBall(b.radius, b.max_power, [ref.CosetVertex(*v) for v in b.vertices],
                    [ref.TreeEdge(e) for e in b.edges])


@pytest.mark.parametrize("radius, max_power", CRITERION_3_SIZES + [(0, 1), (0, 2), (0, 3)])
def test_is_tree_verdicts_match_the_reference(radius, max_power):
    rng = random.Random(radius * 10 + max_power)
    verdicts = set()
    for name, b in _mutants(ball(radius, max_power), rng):
        got, want = is_tree(b), ref.is_tree(_as_reference(b))
        assert got == want == ref.is_tree_by_keys(b) == ref.is_tree_union_find(b), (
            radius, max_power, name)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("radius, max_power", WORKLOAD_BALLS)
def test_ball_matches_the_plain_key_loop_in_order(radius, max_power):
    got, want = ball(radius, max_power), ref.ball_by_keys(radius, max_power)
    assert got == want == ref.ball_hash_once(radius, max_power)  # both lists in order
    assert is_tree(got) and ref.is_tree_by_keys(got)


def test_is_tree_on_vertices_no_ball_holds_matches_the_plain_key_loop():
    # a vertex of an unknown kind or with a non-canonical rep meets no edge
    strays = [("edge", ()), (PAIR, (("P", 1),)), (TRIPLE, (("Q", 2),))]
    b = ball(1, 1)
    for stray in strays:
        for vertices, edges in [
            ([stray], []),
            ([b.vertices[0], stray], [()]),
            (b.vertices + [stray], b.edges + [b.edges[-1]]),
            (b.vertices[:-1] + [stray], b.edges),
        ]:
            mutant = TreeBall(1, 1, vertices, edges)
            got, want = is_tree(mutant), ref.is_tree_by_keys(mutant)
            assert got == want == ref.is_tree_union_find(mutant), (stray, vertices, edges)


def _outcome(build, radius, max_power, cap):
    try:
        return build(radius, max_power, cap=cap)
    except ValueError as exc:
        return str(exc)


def test_every_vertex_cap_overrun_matches_the_plain_key_loop():
    # max_power at and around the cap, and far past it, where ball reads
    # only the first 2 * cap syllables of the pair side
    for cap in range(-1, 40):
        powers = {1, 2, 3, cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 1, 10**12}
        for max_power in sorted(p for p in powers if p >= 1):
            for radius in range(4):
                got = _outcome(ball, radius, max_power, cap)
                for build in (ref.ball_by_keys, ref.ball_hash_once):
                    assert got == _outcome(build, radius, max_power, cap), (
                        build.__name__, radius, max_power, cap)


def test_to_dot_matches_the_reference_byte_for_byte():
    for radius in range(5):
        for max_power in range(1, 4):
            assert to_dot(ball(radius, max_power)) == ref.to_dot(ref.ball(radius, max_power))


def test_to_dot_draws_a_vertex_of_an_unknown_kind_as_a_box_no_edge_meets():
    b = ball(1, 1)
    n = len(b.vertices)
    lines = to_dot(b).split("\n")
    stray = TreeBall(1, 1, b.vertices + [("edge", ())], b.edges)
    assert to_dot(stray).split("\n") == (
        lines[:n + 1] + [f'  v{n} [label="1", shape=box];'] + lines[n + 1:])


def test_vertex_cap_overruns_match_the_reference():
    for radius in range(4):
        for max_power in (1, 2):
            for cap in range(-1, 60):
                try:
                    got = len(ball(radius, max_power, cap=cap).vertices)
                except ValueError as exc:
                    assert str(exc) == f"ball exceeded vertex cap {cap}"
                    got = None
                try:
                    want = len(ref.ball(radius, max_power, cap=cap).vertices)
                except RuntimeError:
                    want = None
                assert got == want, (radius, max_power, cap)


def test_ball_is_tree_and_to_dot_check_no_syllables(monkeypatch):
    calls = []
    check = amalgam.check_syllables

    def counted(rep):
        calls.append(rep)
        return check(rep)

    monkeypatch.setattr(amalgam, "check_syllables", counted)
    amalgam.NormalForm((("P", 1),))
    assert len(calls) == 1  # the wrapper sees the check NormalForm runs
    calls.clear()
    b = ball(6, 3)
    assert len(b.vertices) + len(b.edges) == 10_051
    assert is_tree(b)
    to_dot(b)
    assert calls == []
