# The coset-tree ball that goeritz.tree used before its one incidence
# rule, kept unchanged as an independent differential oracle for
# tests/test_tree.py.  It derives both endpoints of every incident edge
# through edge_endpoints, so it builds and validates the vertex it is
# expanding again for each of its edges.

from __future__ import annotations

from typing import Iterator

from goeritz.tree import (
    PAIR,
    CosetVertex,
    TreeBall,
    TreeEdge,
    base_edge,
    base_pair_vertex,
    base_triple_vertex,
    edge_endpoints,
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
