# The simplicial-layer code that goeritz.simplicial used before the
# barycentric subdivision moved onto shared label tuples, kept unchanged
# as an independent differential oracle for
# tests/test_simplicial_differential.py, for the Complex of
# tests/slope_reference.py and for the "simplicial_reference" rows of
# benchmarks/slope.py.  `Complex.__init__` re-closes every simplex it is
# given under faces; `barycentric` builds a frozenset per face to look up
# its label; `remove_open_stars` scans the vertices for a keep set and
# takes the full subcomplex on it.  The queries the oracle's users need
# (`simplices`, `vertices`, `maximal_simplices`, equality and JSON text)
# are copied with them.  `has`, `dim`, `adjacent`, `star`, `link`,
# `is_flag`, `euler_characteristic`, `is_connected` and
# `is_acyclic_graph` are the frozenset-of-labels versions that
# goeritz.simplicial had before it moved onto int vertex ids.
# `components_union_find`, last, is the union-find component count it had
# on those ids.  Stdlib only: nothing here imports goeritz.simplicial.

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations
from typing import Hashable, Iterable

Label = Hashable


def _label_sorted(labels: Iterable[Label]) -> tuple:
    """Deterministic tuple of labels, naturally ordered when possible."""
    try:
        return tuple(sorted(labels))
    except TypeError:
        return tuple(sorted(labels, key=repr))


def _as_simplex(vertices: Iterable[Label]) -> frozenset:
    s = frozenset(vertices)
    if not 1 <= len(s) <= 3:
        raise ValueError(f"simplex must have 1..3 vertices, got {len(s)}")
    return s


class Complex:
    """An abstract simplicial complex of dimension at most 2."""

    __slots__ = ("_simplices",)

    def __init__(self, simplices: Iterable[Iterable[Label]] = ()):
        closed: set[frozenset] = set()
        for raw in simplices:
            s = _as_simplex(raw)
            closed.add(s)
            for r in range(1, len(s)):
                for face in combinations(tuple(s), r):
                    closed.add(frozenset(face))
        self._simplices = frozenset(closed)

    def simplices(self, dim: int | None = None) -> frozenset:
        if dim is None:
            return self._simplices
        return frozenset(s for s in self._simplices if len(s) == dim + 1)

    def vertices(self) -> frozenset:
        return frozenset(v for s in self._simplices if len(s) == 1 for v in s)

    def has(self, simplex: Iterable[Label]) -> bool:
        return frozenset(simplex) in self._simplices

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max((len(s) for s in self._simplices), default=0) - 1

    def maximal_simplices(self) -> list[tuple]:
        # the family is downward closed, so a simplex that is a proper
        # face of another is a facet (one vertex fewer) of some simplex
        faces = {s - {v} for s in self._simplices if len(s) > 1 for v in s}
        tuples = [_label_sorted(s) for s in self._simplices if s not in faces]
        try:
            return sorted(tuples)
        except TypeError:
            return sorted(tuples, key=repr)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def _require_vertex(self, v: Label) -> None:
        if frozenset([v]) not in self._simplices:
            raise ValueError(f"unknown vertex {v!r}")

    def adjacent(self, w: Label, v: Label) -> bool:
        """True when w and v are equal or span an edge."""
        self._require_vertex(w)
        self._require_vertex(v)
        return w == v or frozenset([w, v]) in self._simplices

    def full_subcomplex(self, keep: Iterable[Label]) -> "Complex":
        """All simplices whose vertices all lie in `keep`."""
        keep = set(keep)
        return _raw(s for s in self._simplices if s <= keep)

    def star(self, v: Label) -> "Complex":
        """The full subcomplex on all vertices adjacent to v (v included)."""
        self._require_vertex(v)
        near = {u for u in self.vertices() if self.adjacent(u, v)}
        return self.full_subcomplex(near)

    def link(self, v: Label) -> "Complex":
        """Simplices not containing v whose join with v lies in the complex."""
        self._require_vertex(v)
        return _raw(
            s
            for s in self._simplices
            if v not in s and (s | {v}) in self._simplices
        )

    def is_flag(self) -> bool:
        """Every pairwise-adjacent vertex triple spans a triangle."""
        neighbours, edges = self._graph()
        for u, w in edges:
            for z in neighbours[u] & neighbours[w]:
                if frozenset((u, w, z)) not in self._simplices:
                    return False
        return True

    def euler_characteristic(self) -> int:
        return (
            len(self.simplices(0))
            - len(self.simplices(1))
            + len(self.simplices(2))
        )

    def _graph(self) -> tuple[dict[Label, set], list[tuple]]:
        """The neighbour set of every vertex and the edges as pairs, read
        off the simplex set in one pass."""
        neighbours: dict[Label, set] = defaultdict(set)
        edges = []
        for s in self._simplices:
            if len(s) == 2:
                u, w = s
                neighbours[u].add(w)
                neighbours[w].add(u)
                edges.append((u, w))
            elif len(s) == 1:
                for v in s:
                    neighbours[v]  # an isolated vertex gets an empty set too
        return neighbours, edges

    def _components(self) -> list[set]:
        neighbours, _ = self._graph()
        seen: set = set()
        parts = []
        for v in neighbours:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                for w in neighbours[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            parts.append(comp)
        return parts

    def is_connected(self) -> bool:
        return len(self._components()) <= 1

    def is_acyclic_graph(self) -> bool:
        """For 1-dimensional complexes: no cycles."""
        if self.simplices(2):
            raise ValueError("acyclicity test requires a 1-dimensional complex")
        return len(self.simplices(1)) + len(self._components()) == len(
            self.simplices(0)
        )

    def barycentric(self) -> "Complex":
        """Barycentric subdivision; barycenters are labelled by the
        sorted tuple of the original simplex labels."""
        label = {s: _label_sorted(s) for s in self._simplices}
        out: set[frozenset] = set()
        for s in self._simplices:
            out.add(frozenset([label[s]]))
        by_size: dict[int, list[frozenset]] = {1: [], 2: [], 3: []}
        for s in self._simplices:
            by_size[len(s)].append(s)
        for t in by_size[2] + by_size[3]:
            for r in range(1, len(t)):
                for face in combinations(tuple(t), r):
                    out.add(frozenset([label[frozenset(face)], label[t]]))
        for t in by_size[3]:
            for mid in combinations(tuple(t), 2):
                for low in mid:
                    out.add(
                        frozenset(
                            [label[frozenset([low])], label[frozenset(mid)], label[t]]
                        )
                    )
        return _raw(out)

    def to_json_dict(self) -> dict:
        """JSON-ready dict; labels are stringified."""
        return {
            "max_simplices": [
                [str(v) for v in s] for s in self.maximal_simplices()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _raw(simplices: Iterable[frozenset]) -> Complex:
    # internal: the family is already downward closed
    c = Complex.__new__(Complex)
    c._simplices = frozenset(simplices)
    return c


def remove_open_stars(subdivision: Complex, original_vertices: Iterable[Label]) -> Complex:
    """Drop the open stars of the original vertices from a barycentric
    subdivision, leaving the full subcomplex on the remaining barycenters.

    `original_vertices` holds the labels the complex had before
    subdividing; their barycenters carry the labels `(v,)`.
    """
    removed = {(v,) for v in original_vertices}
    keep = [u for u in subdivision.vertices() if u not in removed]
    return subdivision.full_subcomplex(keep)


# The component count goeritz.simplicial.Complex had before it shared its
# union-find with goeritz.tree, kept verbatim but for its name: a function
# of a goeritz Complex, whose label table and int-id simplex set it reads.


def components_union_find(self) -> int:
    """Connected components, counted in one union-find pass (path halving) over ids."""
    parent = list(range(len(self._labels)))
    parts = 0
    for s in self._simplices:
        if len(s) == 1:
            parts += 1
        elif len(s) == 2:
            p, q = s
            while p != (up := parent[p]):
                parent[p] = p = parent[up]
            while q != (up := parent[q]):
                parent[q] = q = parent[up]
            if p != q:
                parent[q] = p
                parts -= 1
    return parts
