"""Finite balls of the coset tree acted on by the amalgam.

The tree attached to an amalgamated free product has one vertex per
coset of either factor and one edge per coset of the common subgroup;
the edge gH joins gP and gQ.  Here the factors are the pair and triple
stabilizers, so we call the two vertex kinds "pair" and "triple".

Cosets are named by canonical representatives read off the normal form:
a representative is a tuple of (side, power) syllables as in
:mod:`goeritz.amalgam`, with the edge-stabilizer tail stripped.  An edge
is named by its representative alone.  The endpoint rule, stated once in
``_end``: the vertex of a kind at the end of the edge ``rep`` is ``rep``
with a trailing syllable of that kind's own side ("P" for pair, "Q" for
triple) dropped, since that syllable moves within the same coset.
Canonical pair representatives therefore never end in "P" and triple
representatives never end in "Q".  Distinct canonical representatives
name distinct cosets because normal forms are unique.

A pair vertex meets the edges g b^k H for all k (truncated to
|k| <= max_power); a triple vertex meets exactly the three edges
gH, g d H, g d^2 H.  A vertex is the plain key ``(kind, rep)`` and an
edge is its ``rep``, everywhere: ``ball``, ``is_tree`` and ``to_dot``
build and check no per-vertex object, and ``act`` and ``act_edge``
check the vertex or edge they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .amalgam import NormalForm, mul_nf, nf_to_word, normal_form

__all__ = [
    "PAIR",
    "TRIPLE",
    "TreeBall",
    "base_pair_vertex",
    "base_triple_vertex",
    "base_edge",
    "edge_endpoints",
    "rep_word",
    "vertex_label",
    "ball",
    "act",
    "act_edge",
    "stabilizer_of",
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


def base_pair_vertex() -> Vertex:
    return PAIR, ()


def base_triple_vertex() -> Vertex:
    return TRIPLE, ()


def base_edge() -> Rep:
    return ()


def _end(kind: str, rep: Rep) -> Vertex:
    """The (kind, rep) key of the vertex of this kind at the end of edge rep."""
    if rep and rep[-1][0] == ("P" if kind == PAIR else "Q"):
        rep = rep[:-1]
    return kind, rep


def edge_endpoints(rep: Rep) -> tuple[Vertex, Vertex]:
    """The pair vertex and triple vertex joined by the edge rep."""
    return _end(PAIR, rep), _end(TRIPLE, rep)


def rep_word(rep: Rep) -> str:
    """A generator word spelling a canonical representative."""
    return nf_to_word(NormalForm(rep))


def _incident(kind: str, rep: Rep, max_power: int) -> Iterator[Rep]:
    """The rep of each edge at a vertex, lazily and in ball order: the
    vertex's own rep, then it with one more syllable of the vertex's side."""
    yield rep
    side, powers = ("P", range(-max_power, max_power + 1)) if kind == PAIR else ("Q", (1, 2))
    yield from (rep + ((side, k),) for k in powers if k)


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
    vertices = [(PAIR, ()), (TRIPLE, ())]
    edges = [()]
    seen_v = set(vertices)
    seen_e = set(edges)
    frontier = vertices[:]
    for _ in range(radius):
        next_frontier = []
        for kind, rep in frontier:
            other = TRIPLE if kind == PAIR else PAIR
            for e in _incident(kind, rep, max_power):
                if e not in seen_e:
                    seen_e.add(e)
                    edges.append(e)
                w = _end(other, e)
                if w not in seen_v:
                    if len(vertices) >= cap:
                        raise ValueError(f"ball exceeded vertex cap {cap}")
                    seen_v.add(w)
                    vertices.append(w)
                    next_frontier.append(w)
        frontier = next_frontier
    return TreeBall(radius, max_power, vertices, edges)


def act(word: str, vertex: Vertex) -> Vertex:
    """Left action of a group element (given as a word) on a vertex.

    Raises ValueError unless the vertex is a ``(kind, rep)`` key with a
    known kind and a canonical rep for it.
    """
    kind, rep = vertex
    if kind not in (PAIR, TRIPLE):
        raise ValueError(f"unknown vertex kind {kind!r}")
    nf = NormalForm(rep)  # checks the syllables
    if _end(kind, rep)[1] != rep:
        raise ValueError("representative not canonical for this kind")
    return _end(kind, mul_nf(normal_form(word), nf).syllables)


def act_edge(word: str, rep: Rep) -> Rep:
    """Left action on an edge."""
    return mul_nf(normal_form(word), NormalForm(rep)).syllables


def stabilizer_of(vertex: Vertex, words: Iterable[str]) -> list[str]:
    """The candidate words that fix the vertex."""
    return [w for w in words if act(w, vertex) == vertex]


def is_tree(b: TreeBall) -> bool:
    """Connected, one fewer edge than vertices, and no edge leaving the ball."""
    if len(b.edges) != len(b.vertices) - 1:
        return False
    neighbours: dict[Vertex, list[Vertex]] = {v: [] for v in b.vertices}
    for e in b.edges:
        p, q = _end(PAIR, e), _end(TRIPLE, e)
        try:
            neighbours[p].append(q)
            neighbours[q].append(p)
        except KeyError:  # an endpoint outside the ball
            return False
    stack = [next(iter(neighbours))]  # the first vertex's key
    seen = set(stack)
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(b.vertices)


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
    """GraphViz rendering: pair vertices are circles, triple vertices boxes."""
    ids = {v: f"v{i}" for i, v in enumerate(b.vertices)}
    lines = ["graph coset_tree {"]
    for v in b.vertices:
        kind, rep = v
        shape = "circle" if kind == PAIR else "box"
        lines.append(f'  {ids[v]} [label="{_rep_label(rep)}", shape={shape}];')
    for e in b.edges:
        lines.append(f"  {ids[_end(PAIR, e)]} -- {ids[_end(TRIPLE, e)]};")
    lines.append("}")
    return "\n".join(lines)
