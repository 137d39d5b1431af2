"""Small simplicial complexes of dimension at most two.

A complex is a downward-closed family of nonempty vertex sets of size
one, two or three.  Vertex labels are opaque: anything hashable and
mutually sortable works (strings, tuples, the Slope values of
:mod:`goeritz.farey`).

Inside, a complex holds a label table, one label per int id, and its
simplices as a frozenset of sorted id tuples, which hash and compare in C
and which the cyclic GC stops tracking.  A complex built from labels
numbers them in `_label_sorted` order, so complexes built from the same
labels have equal tables and compare as int sets.  A subcomplex (star,
open-star removal) keeps its parent's table, so a table may hold labels
that are no longer vertices.  Labels appear only at the boundary:
`simplices`, `vertices`, `maximal_simplices` and JSON map ids to labels,
and `adjacent` and `star` map the labels they are given to ids.

Two vertices are adjacent when they are equal or span an edge; the star
of v is the full subcomplex on the vertices adjacent to v.  A complex is
flag when every three pairwise-adjacent distinct vertices span a
triangle.

The barycentric subdivision has one vertex per simplex, labelled by
`_label_sorted` of the simplex's labels, and one simplex per chain in the
face order.  It numbers the barycenters of vertices first, then of
edges, then of triangles, so every chain (vertex, edge, triangle) comes
out as a sorted id tuple.  A label sorted by repr keeps that order:
{10, 9, "a"} is ("a", 10, 9) while its edge {9, 10} is (9, 10).
Removing the open stars of the original vertices leaves the full
subcomplex on the edge and triangle barycenters: the simplices that avoid
every (v,).
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

    __slots__ = ("_labels", "_simplices", "_ids")

    def __init__(self, simplices: Iterable[Iterable[Label]] = ()):
        given = [_as_simplex(raw) for raw in simplices]
        self._labels = _label_sorted(set().union(*given))
        index = self._index()
        closed: set[tuple] = set()
        for s in given:
            ids = tuple(sorted([index[v] for v in s]))
            for r in range(1, len(ids) + 1):
                closed.update(combinations(ids, r))
        self._simplices = frozenset(closed)

    def _index(self) -> dict:
        """Label -> id, built on the first query by label and kept."""
        try:
            return self._ids
        except AttributeError:
            self._ids = {v: i for i, v in enumerate(self._labels)}
            return self._ids

    def _id(self, v: Label) -> int:
        i = self._index().get(v)
        if i is None or (i,) not in self._simplices:
            raise ValueError(f"unknown vertex {v!r}")
        return i

    # -- basic queries ------------------------------------------------

    def simplices(self, dim: int | None = None) -> frozenset:
        """The simplices of one dimension, or all, as frozensets of labels."""
        labels = self._labels
        return frozenset(
            frozenset([labels[i] for i in s])
            for s in self._simplices
            if dim is None or len(s) == dim + 1
        )

    def vertices(self) -> frozenset:
        labels = self._labels
        return frozenset(labels[s[0]] for s in self._simplices if len(s) == 1)

    def f_vector(self) -> tuple[int, int, int]:
        """The numbers of vertices, edges and triangles."""
        counts = [0, 0, 0]
        for s in self._simplices:
            counts[len(s) - 1] += 1
        return counts[0], counts[1], counts[2]

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max(map(len, self._simplices), default=0) - 1

    def maximal_simplices(self) -> list[tuple]:
        # the family is downward closed, so a simplex that is a proper
        # face of another is a facet (one vertex fewer) of some simplex
        faces = {s[:k] + s[k + 1:] for s in self._simplices if len(s) > 1 for k in range(len(s))}
        labels = self._labels
        tuples = [
            _label_sorted([labels[i] for i in s]) for s in self._simplices if s not in faces
        ]
        return list(_label_sorted(tuples))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return False
        if self._labels == other._labels:
            return self._simplices == other._simplices
        return self.simplices() == other.simplices()

    def __hash__(self) -> int:
        # equal complexes have equal vertex labels, whatever their tables
        return hash(self.vertices())

    def __repr__(self) -> str:
        v, e, f = self.f_vector()
        return f"Complex(V={v}, E={e}, F={f})"

    # -- adjacency and star -------------------------------------------

    def adjacent(self, w: Label, v: Label) -> bool:
        """True when w and v are equal or span an edge."""
        i, j = sorted((self._id(w), self._id(v)))
        return i == j or (i, j) in self._simplices

    def star(self, v: Label) -> "Complex":
        """The full subcomplex on all vertices adjacent to v (v included)."""
        i = self._id(v)
        near = {i}
        for s in self._simplices:
            if len(s) == 2 and i in s:
                near.update(s)
        return _from_ids(self._labels, filter(near.issuperset, self._simplices))

    # -- structure tests ----------------------------------------------

    def is_flag(self) -> bool:
        """Every pairwise-adjacent vertex triple spans a triangle."""
        neighbours, edges = self._graph()
        simplices = self._simplices
        for u, w in edges:
            # u < w, so the triangle is checked once, from its lowest edge
            for z in neighbours[u] & neighbours[w]:
                if z > w and (u, w, z) not in simplices:
                    return False
        return True

    def euler_characteristic(self) -> int:
        v, e, f = self.f_vector()
        return v - e + f

    def _graph(self) -> tuple[dict[int, set], list[tuple]]:
        """The neighbour set of every vertex on an edge and the edges as
        pairs, read off the simplex set in one pass."""
        neighbours: dict[int, set] = defaultdict(set)
        edges = []
        for s in self._simplices:
            if len(s) == 2:
                u, w = s
                neighbours[u].add(w)
                neighbours[w].add(u)
                edges.append(s)
        return neighbours, edges

    def _components(self) -> int:
        """Connected components: the vertices, less the edges that join two parts."""
        simplices = self._simplices
        vertices = sum(len(s) == 1 for s in simplices)
        return vertices - _joins(len(self._labels), [s for s in simplices if len(s) == 2])

    def is_connected(self) -> bool:
        return self._components() <= 1

    def is_acyclic_graph(self) -> bool:
        """For 1-dimensional complexes: no cycles."""
        v, e, f = self.f_vector()
        if f:
            raise ValueError("acyclicity test requires a 1-dimensional complex")
        return e + self._components() == v

    # -- subdivision ----------------------------------------------------

    def barycentric(self) -> "Complex":
        """Barycentric subdivision; barycenters are labelled by the
        sorted tuple of the original simplex labels."""
        labels = self._labels
        by_dim = ([], [], [])
        for s in sorted(self._simplices):
            by_dim[len(s) - 1].append(s)
        vertices, edges, triangles = by_dim
        order = vertices + edges + triangles
        bary = {s: k for k, s in enumerate(order)}
        table = tuple(_label_sorted([labels[i] for i in s]) for s in order)
        out = [(k,) for k in range(len(order))]
        for s in edges:
            a, b = s
            e = bary[s]
            out += ((bary[(a,)], e), (bary[(b,)], e))
        for s in triangles:
            a, b, c = s
            t = bary[s]
            va, vb, vc = bary[(a,)], bary[(b,)], bary[(c,)]
            ab, ac, bc = bary[(a, b)], bary[(a, c)], bary[(b, c)]
            out += (
                (va, t), (vb, t), (vc, t), (ab, t), (ac, t), (bc, t),
                (va, ab, t), (vb, ab, t), (va, ac, t), (vc, ac, t), (vb, bc, t), (vc, bc, t),
            )
        return _from_ids(table, out)

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


def _joins(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """How many edges join two parts of the forest on the ids 0..n-1: one
    union-find pass with path halving (Tarjan, JACM 22, 1975), the later
    root under the earlier, so ids in breadth-first order stay flat."""
    parent = list(range(n))
    joins = 0
    for p, q in edges:
        while p != (up := parent[p]):
            parent[p] = p = parent[up]
        while q != (up := parent[q]):
            parent[q] = q = parent[up]
        if p != q:
            joins += 1
            if p < q:
                parent[q] = p
            else:
                parent[p] = q
    return joins


def _from_ids(labels: tuple, simplices: Iterable[tuple]) -> Complex:
    """A complex on the label table `labels` from sorted id tuples that are
    already closed under faces."""
    c = Complex.__new__(Complex)
    c._labels = labels
    c._simplices = frozenset(simplices)
    return c


def remove_open_stars(subdivision: Complex, original_vertices: Iterable[Label]) -> Complex:
    """Drop the open stars of the original vertices from a barycentric
    subdivision, leaving the full subcomplex on the remaining barycenters.

    `original_vertices` holds the labels the complex had before
    subdividing; their barycenters carry the labels `(v,)`.
    """
    removed = {(v,) for v in original_vertices}
    labels = subdivision._labels
    gone = {i for i, label in enumerate(labels) if label in removed}
    return _from_ids(labels, filter(gone.isdisjoint, subdivision._simplices))
