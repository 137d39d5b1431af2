# The coset-tree code that goeritz.tree used before its endpoint rule
# moved onto plain (kind, rep) keys, kept unchanged as an independent
# differential oracle for tests/test_tree.py and
# tests/test_tree_differential.py.  `ball` is the one from before the
# single incidence rule: it derives both endpoints of every incident edge
# through edge_endpoints, so it builds and validates the vertex it is
# expanding again for each of its edges.  `is_tree` and `to_dot` are the
# ones from before the endpoint rule; they, too, build both endpoint
# vertices of every edge through edge_endpoints.  `_canonical_vertex`,
# `edge_endpoints` and `_rep_label` are copied with them, so nothing here
# runs the package's endpoint code.
# `CosetVertex`, `TreeEdge`, `_end` and the three base constructors are
# verbatim copies of the checked vertex and edge classes that goeritz.tree
# had before its vertices and edges became plain (kind, rep) and rep keys.
# `_incident`, `ball_by_keys` and `is_tree_by_keys`, near the end, are the
# plain-key loops that came after them, `ball_hash_once` is the ball loop
# that came after those, and `is_tree_union_find`, last, is the union-find
# is_tree that followed is_tree_by_keys.

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from goeritz.amalgam import check_syllables
from goeritz.tree import BASE_EDGE, BASE_PAIR_VERTEX, BASE_TRIPLE_VERTEX, PAIR, TRIPLE, TreeBall


@dataclass(frozen=True, slots=True)
class CosetVertex:
    """A coset of the pair or triple stabilizer, canonically named."""

    kind: str
    rep: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in (PAIR, TRIPLE):
            raise ValueError(f"unknown vertex kind {self.kind!r}")
        check_syllables(self.rep)
        if _end(self.kind, self.rep)[1] != self.rep:
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


def base_pair_vertex() -> CosetVertex:
    return CosetVertex(PAIR, ())


def base_triple_vertex() -> CosetVertex:
    return CosetVertex(TRIPLE, ())


def base_edge() -> TreeEdge:
    return TreeEdge(())


def _end(kind: str, rep: tuple[tuple[str, int], ...]) -> tuple[str, tuple[tuple[str, int], ...]]:
    """The (kind, rep) key of the vertex of this kind at the end of edge rep."""
    if rep and rep[-1][0] == ("P" if kind == PAIR else "Q"):
        rep = rep[:-1]
    return kind, rep


def _rep_label(rep: tuple[tuple[str, int], ...]) -> str:
    return " ".join(
        f"{'b' if side == 'P' else 'd'}^{power}" for side, power in rep
    ) or "1"


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


def _incident_edges(vertex: CosetVertex, max_power: int) -> Iterator[TreeEdge]:
    yield TreeEdge(vertex.rep)
    if vertex.kind == PAIR:
        for k in range(-max_power, max_power + 1):
            if k != 0:
                yield TreeEdge(vertex.rep + (("P", k),))
    else:
        for m in (1, 2):
            yield TreeEdge(vertex.rep + (("Q", m),))


def ball(radius: int, max_power: int, cap: int = 100_000) -> TreeBall:
    """Breadth-first ball of the given radius around the base edge.

    Pair-vertex expansion is truncated to |k| <= max_power.  Raises
    RuntimeError if the vertex count exceeds the cap.
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
            for e in _incident_edges(v, max_power):
                if e not in seen_e:
                    seen_e.add(e)
                    edges.append(e)
                for w in edge_endpoints(e):
                    if w not in seen_v:
                        seen_v.add(w)
                        vertices.append(w)
                        next_frontier.append(w)
            if len(vertices) > cap:
                raise RuntimeError(f"ball exceeded vertex cap {cap}")
        frontier = next_frontier
    return TreeBall(radius, max_power, vertices, edges)


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


# The plain-key coset-tree loops from before ball hashed each key once and
# is_tree became a union-find check, kept verbatim but for the names of
# ball_by_keys and is_tree_by_keys.  They share _end above, the same text
# as the package's.

Rep = tuple[tuple[str, int], ...]
Vertex = tuple[str, Rep]


def _incident(kind: str, rep: Rep, max_power: int) -> Iterator[Rep]:
    """The rep of each edge at a vertex, lazily and in ball order: the
    vertex's own rep, then it with one more syllable of the vertex's side."""
    yield rep
    side, powers = ("P", range(-max_power, max_power + 1)) if kind == PAIR else ("Q", (1, 2))
    yield from (rep + ((side, k),) for k in powers if k)


def ball_by_keys(radius: int, max_power: int, cap: int = 100_000) -> TreeBall:
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


def is_tree_by_keys(b: TreeBall) -> bool:
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


# The ball that followed ball_by_keys and came before ball built its tree
# by construction, kept verbatim but for its name: it hashes each new key
# once, into one set of reps per vertex kind and one for the edges, and
# inlines _end for the far end of each vertex's own edge.


def ball_hash_once(radius: int, max_power: int, cap: int = 100_000) -> TreeBall:
    """Breadth-first ball of the given radius around the base edge.

    Pair-vertex expansion is truncated to |k| <= max_power.  Raises
    ValueError if the vertex count exceeds the cap.
    """
    if radius < 0 or max_power < 1:
        raise ValueError("radius must be >= 0 and max_power >= 1")
    # the syllables a vertex appends to its rep, in ball order.  The base
    # pair vertex, expanded first, adds a vertex for each of its syllables,
    # so the cap is hit before 2 * cap of them and the rest go unread.
    pair_side = [("P", k) for k in range(-max_power, max_power + 1)[:2 * max(cap, 1)] if k]
    triple_side = [("Q", 1), ("Q", 2)]
    vertices = [BASE_PAIR_VERTEX, BASE_TRIPLE_VERTEX]
    edges = [BASE_EDGE]
    seen_pair, seen_triple, seen_e = {()}, {()}, {()}
    frontier = vertices[:]
    for _ in range(radius):
        next_frontier = []
        for kind, rep in frontier:
            if kind == PAIR:
                other, other_side, seen_w, own_side = TRIPLE, "Q", seen_triple, pair_side
            else:
                other, other_side, seen_w, own_side = PAIR, "P", seen_pair, triple_side
            # the far end of the edge rep is _end(other, rep), inlined: rep
            # with a trailing other_side syllable dropped.  Each edge
            # rep + (s,) ends on the own side, so it is its own far end.
            far = rep[:-1] if rep and rep[-1][0] == other_side else rep
            for e in (rep, *[rep + (s,) for s in own_side]):
                size = len(seen_e)
                seen_e.add(e)
                if len(seen_e) > size:
                    edges.append(e)
                w = far if e is rep else e
                size = len(seen_w)
                seen_w.add(w)
                if len(seen_w) > size:
                    if len(vertices) >= cap:
                        raise ValueError(f"ball exceeded vertex cap {cap}")
                    v = (other, w)
                    vertices.append(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return TreeBall(radius, max_power, vertices, edges)


# The is_tree that followed is_tree_by_keys and came before is_tree shared
# its union-find with goeritz.simplicial, kept verbatim but for its name:
# it numbers the vertices, inlines _end for both ends of each edge and runs
# its own union-find with path halving.


def is_tree_union_find(b: TreeBall) -> bool:
    """Connected, one fewer edge than vertices, and no edge leaving the ball."""
    vertices = b.vertices
    if len(b.edges) != len(vertices) - 1:
        return False
    ids: dict[str, dict[Rep, int]] = {PAIR: {}, TRIPLE: {}}
    try:
        for i, (kind, rep) in enumerate(vertices):
            ids[kind][rep] = i
    except KeyError:  # a kind no edge meets: a tree only as the one vertex
        return len(vertices) == 1
    pair_ids, triple_ids = ids[PAIR], ids[TRIPLE]
    if len(pair_ids) + len(triple_ids) != len(vertices):  # a duplicate vertex
        return False
    # union-find with path halving; V - 1 edges closing no cycle connect V
    # vertices, so a cycle is the only way left to fail
    parent = list(range(len(vertices)))
    for e in b.edges:
        # the two ends are _end(PAIR, e) and _end(TRIPLE, e), inlined
        side = e[-1][0] if e else ""
        try:
            p = pair_ids[e[:-1] if side == "P" else e]
            q = triple_ids[e[:-1] if side == "Q" else e]
        except KeyError:  # an endpoint outside the ball
            return False
        # path halving: each step moves p and its parent link to the grandparent
        while p != (up := parent[p]):
            parent[p] = p = parent[up]
        while q != (up := parent[q]):
            parent[q] = q = parent[up]
        if p == q:
            return False
        # the later root joins the earlier, so a ball in BFS order stays flat
        if p < q:
            parent[q] = p
        else:
            parent[p] = q
    return True
