"""Small simplicial complexes of dimension at most two.

A complex is a downward-closed family of nonempty vertex sets of size
one, two or three.  Vertex labels are opaque: anything hashable and
mutually sortable works (strings, tuples, the Slope values of
:mod:`goeritz.farey`).

Two vertices are adjacent when they are equal or span an edge; the star
of v is the full subcomplex on the vertices adjacent to v, and the link
is the boundary part of the star away from v.  A complex is flag when
every three pairwise-adjacent distinct vertices span a triangle.

The barycentric subdivision has one vertex per simplex, labelled by the
sorted tuple of the original labels, and one simplex per chain in the
face order.  Each simplex is labelled once, and every chain through it
holds that one tuple.  A face's label is read off a sub-tuple of its
simplex's label: (v,) for a vertex, and for an edge the pair in the
order it has there, or reversed, since a triangle whose labels only
sort by repr ({10, 9, "a"} is ("a", 10, 9)) may order an edge against
its own natural sort ((9, 10)).  Removing the open stars of the
original vertices leaves the full subcomplex on the edge and triangle
barycenters: the simplices that avoid every (v,).
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import combinations
from typing import Hashable, Iterable

__all__ = ["Complex", "remove_open_stars"]

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

    # -- basic queries ------------------------------------------------

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
        return list(_label_sorted(tuples))

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"Complex(V={len(self.simplices(0))}, E={len(self.simplices(1))}, F={len(self.simplices(2))})"

    # -- adjacency, star, link ----------------------------------------

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

    # -- structure tests ----------------------------------------------

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

    # -- subdivision ----------------------------------------------------

    def barycentric(self) -> "Complex":
        """Barycentric subdivision; barycenters are labelled by the
        sorted tuple of the original simplex labels."""
        label = {}  # every barycenter shares its simplex's one label tuple
        for s in self._simplices:
            t = _label_sorted(s)
            label[t] = t
        out = [frozenset((t,)) for t in label]
        for t in label:
            if len(t) == 1:
                continue
            low = [label[(v,)] for v in t]
            out += [frozenset((u, t)) for u in low]
            if len(t) == 3:
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    a, b = t[i], t[j]
                    # a repr-ordered triangle may order its edge the other way
                    mid = label.get((a, b)) or label[(b, a)]
                    out += (
                        frozenset((mid, t)),
                        frozenset((low[i], mid, t)),
                        frozenset((low[j], mid, t)),
                    )
        return _raw(out)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dict; labels are stringified."""
        return {
            "max_simplices": [
                [str(v) for v in s] for s in self.maximal_simplices()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Complex":
        if not isinstance(data, dict) or "max_simplices" not in data:
            raise ValueError('expected a "max_simplices" key')
        simplices = data["max_simplices"]
        # only strings and integers (type(True) is bool): true == 1 == 1.0
        # would silently merge labels, and lists and objects are unhashable
        if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(type(v) in (str, int) for v in s)
            for s in simplices
        ):
            raise ValueError(
                '"max_simplices" must be a list of lists of labels (strings or integers)'
            )
        return cls(simplices)

    @classmethod
    def from_json(cls, text: str) -> "Complex":
        try:
            data = json.loads(text)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("JSON nested too deeply") from None
        return cls.from_json_dict(data)

    def to_dot(self) -> str:
        """GraphViz rendering of a complex of dimension at most 1."""
        if self.simplices(2):
            raise ValueError("dot export requires a 1-dimensional complex")
        verts = sorted(self.vertices(), key=str)
        ids = {v: f"n{i}" for i, v in enumerate(verts)}
        lines = ["graph complex {"]
        for v in verts:
            lines.append(f'  {ids[v]} [label="{v}"];')
        for e in sorted((tuple(sorted(e, key=str)) for e in self.simplices(1))):
            u, w = e
            lines.append(f"  {ids[u]} -- {ids[w]};")
        lines.append("}")
        return "\n".join(lines)


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
    return _raw(s for s in subdivision.simplices() if removed.isdisjoint(s))
