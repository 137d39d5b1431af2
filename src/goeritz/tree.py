"""Finite balls of the coset tree acted on by the amalgam.

The tree attached to an amalgamated free product has one vertex per
coset of either factor and one edge per coset of the common subgroup;
the edge gH joins gP and gQ.  Here the factors are the pair and triple
stabilizers, so we call the two vertex kinds "pair" and "triple".

Cosets are named by canonical representatives read off the normal form:
a representative is a tuple of (side, power) syllables as in
:mod:`goeritz.amalgam`, with the edge-stabilizer tail stripped.  An edge
is named by its representative alone.  The endpoint rule, stated in
``_end``: the vertex of a kind at the end of the edge ``rep`` is ``rep``
with a trailing syllable of that kind's own side ("P" for pair, "Q" for
triple) dropped, since that syllable moves within the same coset.
``act`` calls ``_end``; ``_edge_ends``, which ``is_tree`` and
``to_dot`` read, inlines it once.
Canonical pair representatives therefore never end in "P" and triple
representatives never end in "Q".  Distinct canonical representatives
name distinct cosets because normal forms are unique.

A pair vertex meets the edges g b^k H for all k (truncated to
|k| <= max_power); a triple vertex meets exactly the three edges
gH, g d H, g d^2 H.  A vertex is the plain key ``(kind, rep)`` and an
edge is its ``rep``, everywhere: ``ball``, ``is_tree`` and ``to_dot``
build and check no per-vertex object, and ``act`` and ``act_edge``
check the vertex or edge they are given.  ``ball`` hashes no key: a
vertex's edge ``rep`` is its edge toward the base edge, and each
own-side syllable s adds the child and edge ``rep + (s,)``.  No key
repeats: a vertex at depth d has a d-syllable rep, a child extends its
parent's by one syllable, and pair children end in "Q", triple in "P".
``is_tree`` counts the edges that join two parts with
``simplicial._joins``, the union-find the complexes use too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .amalgam import NormalForm, mul_nf, nf_to_word, normal_form
from .simplicial import _joins

__all__ = [
    "PAIR",
    "TRIPLE",
    "TreeBall",
    "BASE_PAIR_VERTEX",
    "BASE_TRIPLE_VERTEX",
    "BASE_EDGE",
    "rep_word",
    "vertex_label",
    "ball",
    "act",
    "act_edge",
    "is_tree",
    "QuotientReport",
    "quotient",
    "to_dot",
]

PAIR = "pair"
TRIPLE = "triple"
Rep = tuple[tuple[str, int], ...]  # a canonical representative; an edge is its Rep
Vertex = tuple[str, Rep]  # (kind, rep)


def _rep_label(rep: Rep) -> str:
    return " ".join(
        f"{'b' if side == 'P' else 'd'}^{power}" for side, power in rep
    ) or "1"


def vertex_label(vertex: Vertex) -> str:
    """The vertex as text, such as ``pair[b^1 d^2]``."""
    kind, rep = vertex
    return f"{kind}[{_rep_label(rep)}]"


BASE_PAIR_VERTEX: Vertex = (PAIR, ())
BASE_TRIPLE_VERTEX: Vertex = (TRIPLE, ())
BASE_EDGE: Rep = ()


def _end(kind: str, rep: Rep) -> Vertex:
    """The (kind, rep) key of the vertex of this kind at the end of edge rep."""
    if rep and rep[-1][0] == ("P" if kind == PAIR else "Q"):
        rep = rep[:-1]
    return kind, rep


def rep_word(rep: Rep) -> str:
    """A generator word spelling a canonical representative."""
    return nf_to_word(NormalForm(rep))


@dataclass
class TreeBall:
    """A finite ball around the base edge, vertices in BFS order: each a
    ``(kind, rep)`` key, each edge its ``rep``."""

    radius: int
    max_power: int
    vertices: list[Vertex]
    edges: list[Rep]


def ball(radius: int, max_power: int, cap: int = 100_000) -> TreeBall:
    """Breadth-first ball of the given radius around the base edge.

    Pair-vertex expansion is truncated to |k| <= max_power.  Raises
    ValueError if the vertex count exceeds the cap.
    """
    if radius < 0 or max_power < 1:
        raise ValueError("radius must be >= 0 and max_power >= 1")
    # the base pair vertex, expanded first, gets a child per pair syllable,
    # so the cap is hit before 2 * cap of them and the rest go unread
    pair_side = [("P", k) for k in range(-max_power, max_power + 1)[:2 * max(cap, 1)] if k]
    vertices = [BASE_PAIR_VERTEX, BASE_TRIPLE_VERTEX]
    done = 0
    for _ in range(radius):
        frontier, done = vertices[done:], len(vertices)  # what the last round appended
        for kind, rep in frontier:
            other, own_side = (TRIPLE, pair_side) if kind == PAIR else (PAIR, (("Q", 1), ("Q", 2)))
            for s in own_side:
                if len(vertices) >= cap:
                    raise ValueError(f"ball exceeded vertex cap {cap}")
                vertices.append((other, rep + (s,)))
    return TreeBall(radius, max_power, vertices, [BASE_EDGE, *[rep for _, rep in vertices[2:]]])


def act(word: str, vertex: Vertex) -> Vertex:
    """Left action of a group element (given as a word) on a vertex.

    Raises ValueError unless the vertex is a ``(kind, rep)`` pair of a
    known kind and canonical rep, and TypeError for a rep not a sequence.
    """
    try:
        kind, rep = vertex
    except (TypeError, ValueError):
        raise ValueError(f"vertex must be a (kind, rep) pair, got {vertex!r}") from None
    if kind not in (PAIR, TRIPLE):
        raise ValueError(f"unknown vertex kind {kind!r}")
    nf = NormalForm(rep)  # checks the syllables
    if _end(kind, rep)[1] != rep:
        raise ValueError("representative not canonical for this kind")
    return _end(kind, mul_nf(normal_form(word), nf).syllables)


def act_edge(word: str, rep: Rep) -> Rep:
    """Left action on an edge."""
    return mul_nf(normal_form(word), NormalForm(rep)).syllables


def _edge_ends(b: TreeBall) -> Iterator[tuple[int, int]]:
    """The positions in ``b.vertices`` of the pair and triple ends of each
    edge, lazily, ``_end`` inlined; KeyError on reaching an end outside the
    ball.  A repeated vertex is numbered at its last position."""
    ids: defaultdict[str, dict[Rep, int]] = defaultdict(dict)
    for i, (kind, rep) in enumerate(b.vertices):
        ids[kind][rep] = i
    pair_ids, triple_ids = ids[PAIR], ids[TRIPLE]
    return ((pair_ids[e[:-1] if (side := e[-1][0] if e else "") == "P" else e],
             triple_ids[e[:-1] if side == "Q" else e]) for e in b.edges)


def is_tree(b: TreeBall) -> bool:
    """Connected, one fewer edge than vertices, and no edge leaving the ball."""
    n = len(b.vertices)
    if len(b.edges) != n - 1:
        return False
    # n - 1 edges connect n vertices exactly when each joins two parts; a
    # vertex no edge ends at (an earlier copy, an unknown kind) stays apart
    try:
        return _joins(n, _edge_ends(b)) == n - 1
    except KeyError:  # an endpoint outside the ball
        return False


@dataclass
class QuotientReport:
    """Quotient of a ball by the group action: a single edge.

    Every pair vertex is carried to the base pair vertex by its own
    representative (likewise for triple vertices), so the quotient graph
    has one vertex of each kind and one edge.  The witnesses record, for
    sampled vertices, the representative word and whether acting with it
    on the base vertex of the same kind reproduces the sampled vertex.
    """

    vertices: tuple[str, str]
    edges: tuple[tuple[str, str], ...]
    witnesses: list[tuple[str, str, bool]]

    @property
    def ok(self) -> bool:
        return (
            self.vertices == (PAIR, TRIPLE)
            and self.edges == ((PAIR, TRIPLE),)
            and all(good for _, _, good in self.witnesses)
        )


def quotient(b: TreeBall, witness_samples: int = 20) -> QuotientReport:
    """Collapse a ball to the quotient edge, with action witnesses.

    Raises ValueError if witness_samples is negative.
    """
    if witness_samples < 0:
        raise ValueError("witness_samples must be >= 0")
    count = min(witness_samples, len(b.vertices))
    sampled = b.vertices[::max(1, len(b.vertices) // count)][:count] if count else []
    witnesses = []
    for v in sampled:
        kind, rep = v
        word = rep_word(rep)
        witnesses.append((vertex_label(v), word, act(word, (kind, ())) == v))
    return QuotientReport((PAIR, TRIPLE), ((PAIR, TRIPLE),), witnesses)


def to_dot(b: TreeBall) -> str:
    """GraphViz rendering: pair vertices are circles, triple vertices boxes.
    The vertex at position i of the ball is node v<i>; a vertex of any
    other kind is drawn as a box and meets no edge."""
    lines = ["graph coset_tree {"]
    for i, (kind, rep) in enumerate(b.vertices):
        shape = "circle" if kind == PAIR else "box"
        lines.append(f'  v{i} [label="{_rep_label(rep)}", shape={shape}];')
    lines += [f"  v{p} -- v{q};" for p, q in _edge_ends(b)]
    lines.append("}")
    return "\n".join(lines)
