"""Finite balls of the coset tree acted on by the amalgam.

The tree attached to an amalgamated free product has one vertex per
coset of either factor and one edge per coset of the common subgroup;
the edge gH joins gP and gQ.  Here the factors are the pair and triple
stabilizers, so we call the two vertex kinds "pair" and "triple".

Cosets are named by canonical representatives read off the normal form:
strip the edge-stabilizer tail, then drop a trailing syllable of the
vertex's own side (it moves within the same coset).  A representative
is a tuple of (side, power) syllables as in :mod:`goeritz.amalgam`.
Canonical pair representatives therefore never end in a "P" syllable
and triple representatives never end in "Q".  Distinct canonical representatives
name distinct cosets because normal forms are unique.

A pair vertex meets the edges g b^k H for all k (truncated to
|k| <= max_power); a triple vertex meets exactly the three edges
gH, g d H, g d^2 H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .amalgam import NormalForm, check_syllables, mul_nf, nf_to_word, normal_form

__all__ = [
    "PAIR",
    "TRIPLE",
    "CosetVertex",
    "TreeEdge",
    "TreeBall",
    "base_pair_vertex",
    "base_triple_vertex",
    "base_edge",
    "edge_endpoints",
    "rep_word",
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


@dataclass(frozen=True, slots=True)
class CosetVertex:
    """A coset of the pair or triple stabilizer, canonically named."""

    kind: str
    rep: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in (PAIR, TRIPLE):
            raise ValueError(f"unknown vertex kind {self.kind!r}")
        check_syllables(self.rep)
        own = "P" if self.kind == PAIR else "Q"
        if self.rep and self.rep[-1][0] == own:
            raise ValueError("representative not canonical for this kind")

    def __str__(self) -> str:
        return f"{self.kind}[{_rep_label(self.rep)}]"


@dataclass(frozen=True, slots=True)
class TreeEdge:
    """A coset of the edge stabilizer."""

    rep: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        check_syllables(self.rep)

    def __str__(self) -> str:
        return f"edge[{_rep_label(self.rep)}]"


def _rep_label(rep: tuple[tuple[str, int], ...]) -> str:
    return " ".join(
        f"{'b' if side == 'P' else 'd'}^{power}" for side, power in rep
    ) or "1"


def base_pair_vertex() -> CosetVertex:
    return CosetVertex(PAIR, ())


def base_triple_vertex() -> CosetVertex:
    return CosetVertex(TRIPLE, ())


def base_edge() -> TreeEdge:
    return TreeEdge(())


def _canonical_vertex(kind: str, syllables: tuple[tuple[str, int], ...]) -> CosetVertex:
    own = "P" if kind == PAIR else "Q"
    if syllables and syllables[-1][0] == own:
        syllables = syllables[:-1]
    return CosetVertex(kind, syllables)


def edge_endpoints(edge: TreeEdge) -> tuple[CosetVertex, CosetVertex]:
    """The pair vertex and triple vertex joined by an edge."""
    return (
        _canonical_vertex(PAIR, edge.rep),
        _canonical_vertex(TRIPLE, edge.rep),
    )


def rep_word(rep: tuple[tuple[str, int], ...]) -> str:
    """A generator word spelling a canonical representative."""
    return nf_to_word(NormalForm(rep))


def _incident(vertex: CosetVertex, max_power: int) -> Iterator[tuple[TreeEdge, CosetVertex]]:
    """Each edge at a vertex with its far endpoint; past the first, an edge's
    rep ends on the vertex's side, so it is canonical for the other kind."""
    rep = vertex.rep
    if vertex.kind == PAIR:
        other, steps = TRIPLE, [("P", k) for k in range(-max_power, max_power + 1) if k]
    else:
        other, steps = PAIR, [("Q", 1), ("Q", 2)]
    yield TreeEdge(rep), _canonical_vertex(other, rep)
    for step in steps:
        far = rep + (step,)
        yield TreeEdge(far), CosetVertex(other, far)


@dataclass
class TreeBall:
    """A finite ball around the base edge, vertices in BFS order."""

    radius: int
    max_power: int
    vertices: list[CosetVertex]
    edges: list[TreeEdge]


def ball(radius: int, max_power: int, cap: int = 100_000) -> TreeBall:
    """Breadth-first ball of the given radius around the base edge.

    Pair-vertex expansion is truncated to |k| <= max_power.  Raises
    ValueError if the vertex count exceeds the cap.
    """
    if radius < 0 or max_power < 1:
        raise ValueError("radius must be >= 0 and max_power >= 1")
    vertices = [base_pair_vertex(), base_triple_vertex()]
    edges = [base_edge()]
    seen_v = set(vertices)
    seen_e = set(edges)
    frontier = list(vertices)
    for _ in range(radius):
        next_frontier: list[CosetVertex] = []
        for v in frontier:
            for e, w in _incident(v, max_power):
                if e not in seen_e:
                    seen_e.add(e)
                    edges.append(e)
                if w not in seen_v:
                    seen_v.add(w)
                    vertices.append(w)
                    next_frontier.append(w)
            if len(vertices) > cap:
                raise ValueError(f"ball exceeded vertex cap {cap}")
        frontier = next_frontier
    return TreeBall(radius, max_power, vertices, edges)


def act(word: str, vertex: CosetVertex) -> CosetVertex:
    """Left action of a group element (given as a word) on a vertex."""
    moved = mul_nf(normal_form(word), NormalForm(vertex.rep))
    return _canonical_vertex(vertex.kind, moved.syllables)


def act_edge(word: str, edge: TreeEdge) -> TreeEdge:
    """Left action on an edge."""
    moved = mul_nf(normal_form(word), NormalForm(edge.rep))
    return TreeEdge(moved.syllables)


def stabilizer_of(vertex: CosetVertex, words: Iterable[str]) -> list[str]:
    """The candidate words that fix the vertex."""
    return [w for w in words if act(w, vertex) == vertex]


def is_tree(b: TreeBall) -> bool:
    """Connected, one fewer edge than vertices, and no edge leaving the ball."""
    if len(b.edges) != len(b.vertices) - 1:
        return False
    neighbours: dict[CosetVertex, list[CosetVertex]] = {v: [] for v in b.vertices}
    for e in b.edges:
        p, q = edge_endpoints(e)
        try:
            neighbours[p].append(q)
            neighbours[q].append(p)
        except KeyError:  # an endpoint outside the ball
            return False
    seen = {b.vertices[0]}
    stack = [b.vertices[0]]
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
    """Collapse a ball to the quotient edge, with action witnesses."""
    count = min(witness_samples, len(b.vertices))
    step = max(1, len(b.vertices) // count)
    sampled = b.vertices[::step][:count]
    bases = {PAIR: base_pair_vertex(), TRIPLE: base_triple_vertex()}
    witnesses = []
    for v in sampled:
        word = rep_word(v.rep)
        good = act(word, bases[v.kind]) == v
        witnesses.append((str(v), word, good))
    return QuotientReport((PAIR, TRIPLE), ((PAIR, TRIPLE),), witnesses)


def to_dot(b: TreeBall) -> str:
    """GraphViz rendering: pair vertices are circles, triple vertices boxes."""
    ids = {v: f"v{i}" for i, v in enumerate(b.vertices)}
    lines = ["graph coset_tree {"]
    for v in b.vertices:
        shape = "circle" if v.kind == PAIR else "box"
        lines.append(f'  {ids[v]} [label="{_rep_label(v.rep)}", shape={shape}];')
    for e in b.edges:
        p, q = edge_endpoints(e)
        lines.append(f"  {ids[p]} -- {ids[q]};")
    lines.append("}")
    return "\n".join(lines)
